"""Action-per-piece, lattice fitting, and time-density tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenforge.action import (
    TimePair,
    action_for_state,
    action_of_amplitude,
    closure_check,
    fit_spectrum,
    h_from_quantum,
    make_time_pair,
)
from eigenforge import action, polynomials
from eigenforge.errors import DomainError, NoLatticeError
from eigenforge.polynomials import integrate_product

HALF_PI = math.pi / 2


class _FakeState:
    def __init__(self, amplitude, norms=(1.0,)):
        self.amplitude = amplitude
        self.space_norms = tuple(norms)
        self.omega = 1.0


class TestMakeTimePair:
    def test_endpoint_values(self):
        pair = make_time_pair()
        assert float(pair.u1.values(0.0)) == pytest.approx(1.0, abs=1e-8)
        assert float(pair.u2.values(0.0)) == pytest.approx(0.0, abs=1e-8)
        assert abs(float(pair.u1.values(HALF_PI))) <= 1e-8
        assert float(pair.u2.values(HALF_PI)) == pytest.approx(1.0, abs=1e-8)
        assert pair.u1.interval == pair.u2.interval == (0.0, HALF_PI)

    def test_pythagorean_identity_midpiece(self):
        pair = make_time_pair()
        v = float(pair.u1.values(1.0)) ** 2 + float(pair.u2.values(1.0)) ** 2
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_pair_invariants(self):
        # u1' = -u2, u2' = u1 and u1^2 + u2^2 = 1.
        pair = make_time_pair()
        xs = np.linspace(0.0, HALF_PI, 101)
        v1, v2 = pair.u1.values(xs), pair.u2.values(xs)
        assert np.abs(pair.u1.derivative().values(xs) + v2).max() <= 1e-12
        assert np.abs(pair.u2.derivative().values(xs) - v1).max() <= 1e-12
        assert np.abs(v1 * v1 + v2 * v2 - 1.0).max() <= 1e-12

    def test_same_pair_for_every_frequency(self):
        # The tau-domain pair is frequency-free: one shared immutable value.
        assert make_time_pair() is make_time_pair()
        assert set(vars(make_time_pair())) == {"u1", "u2", "action"}

    def test_action_is_the_kinetic_integral(self):
        # The pair carries int u1'^2 + int u2'^2, summed in that order.
        pair = make_time_pair()
        d1, d2 = pair.u1.derivative(), pair.u2.derivative()
        assert pair.action == integrate_product(d1, d1) + integrate_product(d2, d2)
        assert abs(pair.action - HALF_PI) <= 1e-12

    def test_validation_survives_a_cached_call(self):
        # The pair takes no orientation: an argument is refused, also once
        # the one pair is cached.
        make_time_pair()
        with pytest.raises(TypeError):
            make_time_pair("forward")


class TestActionIntegral:
    def test_unit_amplitude_gives_half_pi(self):
        assert action_for_state(_FakeState(1.0)) == pytest.approx(HALF_PI, abs=1e-7)

    def test_amplitude_two_gives_two_pi(self):
        assert action_for_state(_FakeState(2.0)) == pytest.approx(2 * math.pi, abs=4e-7)

    def test_zero_amplitude_gives_zero(self):
        assert action_for_state(_FakeState(0.0)) == 0.0

    def test_quadratic_amplitude_scaling(self):
        one = action_for_state(_FakeState(1.0))
        two = action_for_state(_FakeState(2.0))
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_reads_the_stored_action(self, monkeypatch):
        def refuse(*factors):
            raise AssertionError("an action integral computed an integral")

        make_time_pair()
        monkeypatch.setattr(polynomials, "integrate_product", refuse)
        monkeypatch.setattr(action, "integrate_product", refuse)
        assert action.action_for_state(_FakeState(1.0)) == make_time_pair().action

    def test_unnormalized_space_factors_rejected(self):
        with pytest.raises(DomainError):
            action_for_state(_FakeState(1.0, norms=(0.5,)))

    @pytest.mark.parametrize("amplitude", [0.3, 1.0, 2.0 ** 0.25, 7.5])
    def test_one_rule_for_state_and_amplitude(self, amplitude):
        # A solved state and a stored solution's amplitude read one rule.
        expected = amplitude * amplitude * make_time_pair().action
        assert action_for_state(_FakeState(amplitude)) == expected
        assert action_of_amplitude(amplitude, (1.0,)) == expected


def _labels(alphas):
    return [f"m{i}" for i in range(len(alphas))]


class TestFitLattice:
    def test_integer_multiples(self):
        spec = fit_spectrum(_labels([3.0, 6.0, 9.0]), [3.0, 6.0, 9.0], tol=1e-9)
        assert spec.quantum == pytest.approx(3.0, abs=1e-12)
        assert spec.multipliers == (1, 2, 3)

    def test_single_value(self):
        spec = fit_spectrum(["m"], [HALF_PI], tol=1e-9)
        assert spec.quantum == pytest.approx(HALF_PI)
        assert spec.multipliers == (1,)

    def test_incommensurable_pair_rejected(self):
        with pytest.raises(NoLatticeError, match=r"^candidate quantum 2\.450e-09 is "
                           r"indistinguishable from the threshold 1\.0e-09$"):
            fit_spectrum(["a", "b"], [1.0, math.sqrt(2.0)], tol=1e-9)

    def test_values_below_tolerance_rejected(self):
        with pytest.raises(DomainError):
            fit_spectrum(["a"], [1e-12], tol=1e-9)

    @pytest.mark.parametrize("labels,alphas,match", [
        (["a"], [1.0, 2.0], "labels and action values differ in number: 1 and 2"),
        (["a", "b", "c"], [1.0, 2.0], "labels and action values differ in number: 3 and 2"),
        ([], [], "need at least one action value"),
        ([1, None], [1.0, 2.0], r"labels\[0\] must be a string, got int"),
        (["a", None], [1.0, 2.0], r"labels\[1\] must be a string, got NoneType"),
    ], ids=["fewer-labels", "more-labels", "empty", "int-label", "none-label"])
    def test_one_label_per_value(self, labels, alphas, match):
        with pytest.raises(DomainError, match=f"^{match}$"):
            fit_spectrum(labels, alphas, tol=1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(DomainError, match="^tol must be positive$"):
            fit_spectrum(["a"], [1.0], tol=tol)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(DomainError, match=f"action value {bad} is not finite"):
            fit_spectrum(["a", "b"], [1.0, bad], tol=1e-9)

    @given(
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=6),
    )
    @settings(max_examples=80)
    def test_exact_multiples_always_fit_and_close(self, quantum, multipliers):
        alphas = [n * quantum for n in multipliers]
        spec = fit_spectrum(_labels(alphas), alphas, tol=1e-9)
        assert spec.residuals == tuple(abs(a - n * spec.quantum)
                                       for a, n in zip(alphas, spec.multipliers))
        assert all(r <= 1e-9 for r in spec.residuals)
        assert closure_check(alphas, spec.quantum, tol=1e-9)


def _exact_closure(alphas, quantum, tol):
    """The definition, in exact arithmetic: close the values above tol under
    sums and absolute differences above tol, three levels deep, and ask that
    every value lie within tol of a multiple of the quantum."""
    tol, quantum = Fraction(tol), Fraction(quantum)
    current = {Fraction(a) for a in alphas if abs(Fraction(a)) > tol}
    for _ in range(3):
        generated = set(current)
        items = sorted(current)
        for i, x in enumerate(items):
            for y in items[i:]:
                generated.add(x + y)
                if abs(x - y) > tol:
                    generated.add(abs(x - y))
        current = generated
    return all(abs(v - round(v / quantum) * quantum) <= tol for v in current)


_TOL = 2.0 ** -30  # a power of two, so tol / 8 and the values below are exact
_ONE_UP = 1.0 + 2.0 ** -33  # 1 plus tol / 8
_ULP = 2.0 ** -52
_TEN_TOL = 10 * _TOL
CLOSURE_TABLE = [
    # Multiplier 163 389: the rounding of a float closure's sums reaches tol
    # there, and the closure in floats (sums rounded to 12 decimals) said False.
    pytest.param([1598811.812651334, 9.785308757941685], 9.785308757941685, 1e-9, True,
                 id="float-rounding"),
    # The float product 400151 * quantum is this value, 2.3e-10 off the exact
    # product: a residual taken in floats reads 0, the exact one 8 * 2.3e-10 > tol.
    pytest.param([3915601.084799123], 9.785308757941685, 1e-9, False, id="float-product"),
    pytest.param([_ONE_UP], 1.0, _TOL, True, id="tol/8-at-bound"),
    pytest.param([_ONE_UP - _ULP], 1.0, _TOL, True, id="tol/8-just-below"),
    pytest.param([_ONE_UP + _ULP], 1.0, _TOL, False, id="tol/8-just-above"),
    pytest.param([-3.0, 6.0, -9.0], 3.0, 1e-9, True, id="negative-on-lattice"),
    pytest.param([-(_ONE_UP - _ULP), -2.0], 1.0, _TOL, True, id="negative-below"),
    pytest.param([-(_ONE_UP + _ULP), 2.0], 1.0, _TOL, False, id="negative-above"),
    # 5e-10 alone would fail (8 * 5e-10 > tol), but it is skipped, like -1e-9.
    pytest.param([1.0, 5e-10, -1e-9, 1e-9], 1.0, 1e-9, True, id="at-or-below-tol-skipped"),
    pytest.param([5e-10], 1.0, 1e-9, True, id="only-below-tol"),
    pytest.param([3 * _TEN_TOL + 2.0 ** -34, _TEN_TOL], _TEN_TOL, _TOL, True,
                 id="ten-tol-8r-below"),
    pytest.param([3 * _TEN_TOL + 2.0 ** -33 + 2.0 ** -40], _TEN_TOL, _TOL, False,
                 id="ten-tol-8r-above"),
    pytest.param([3 * _TEN_TOL + 0.9 * _TOL], _TEN_TOL, _TOL, False, id="ten-tol-2r-above"),
    pytest.param([3 * _TEN_TOL + 1.5 * _TOL], _TEN_TOL, _TOL, False, id="ten-tol-r-above"),
]


class TestClosureCheck:
    def test_lattice_pair(self):
        assert closure_check([1.0, 2.0], 1.0)

    def test_three_six_nine(self):
        assert closure_check([3.0, 6.0, 9.0], 3.0)

    def test_incommensurable_fails(self):
        assert not closure_check([1.0, math.sqrt(2.0)], 1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        # Before, nan was skipped (closure True) and inf overflowed round().
        with pytest.raises(DomainError, match=f"action value {bad} is not finite"):
            closure_check([1.0, bad], 1.0)

    @pytest.mark.parametrize("alphas,quantum,tol,expected", CLOSURE_TABLE)
    def test_table_against_exact_closure(self, alphas, quantum, tol, expected):
        assert _exact_closure(alphas, quantum, tol) is expected
        assert closure_check(alphas, quantum, tol) is expected

    @pytest.mark.parametrize("quantum,tol", [
        (9.999e-9, 1e-9), (1.0, 0.2), (1.0, 0.0), (math.inf, 1e-9), (math.nan, 1e-9)])
    def test_quantum_below_ten_tol_refused(self, quantum, tol):
        with pytest.raises(DomainError, match="finite quantum of at least 10 tol"):
            closure_check([1.0], quantum, tol)


def schrodinger_time_density(pair, amplitude, h, samples):
    """The two time-density forms at evenly spaced points of the piece.

    Form (a) is A^2 (u1'^2 + u2'^2); form (b) is the h-prefactored current
    (h/4pi) * 2 A^2 (u1 u2' - u2 u1') reduced back to tau units, where the h
    factor cancels. Both are the constant A^2 for the exact pair; reversing
    time (negating u2) flips the sign of (b).
    """
    amp2 = float(amplitude) ** 2
    xs = np.linspace(0.0, action.QUARTER_PERIOD, samples)
    d1 = pair.u1.derivative().values(xs)
    d2 = pair.u2.derivative().values(xs)
    v1 = pair.u1.values(xs)
    v2 = pair.u2.values(xs)
    form_a = amp2 * (d1 * d1 + d2 * d2)
    current = (h / (4.0 * math.pi)) * 2.0 * amp2 * (v1 * d2 - v2 * d1)
    form_b = current / (h / (2.0 * math.pi))
    return [float(v) for v in form_a], [float(v) for v in form_b]


class TestSchrodingerDensity:
    def test_exact_pair_both_forms_unity(self):
        pair = make_time_pair()
        a, b = schrodinger_time_density(pair, 1.0, 2 * math.pi, samples=11)
        assert all(abs(v - 1.0) <= 1e-6 for v in a)
        assert all(abs(v - 1.0) <= 1e-6 for v in b)

    def test_zero_amplitude_all_zero(self):
        pair = make_time_pair()
        a, b = schrodinger_time_density(pair, 0.0, 2 * math.pi, samples=7)
        assert all(v == 0.0 for v in a)
        assert all(v == 0.0 for v in b)

    def test_backward_flips_current_sign(self):
        # Time reversal keeps u1 and negates u2.
        fwd = make_time_pair()
        bwd = TimePair(fwd.u1, -fwd.u2, fwd.action)
        _, b_f = schrodinger_time_density(fwd, 1.5, 2 * math.pi, samples=9)
        a_b, b_b = schrodinger_time_density(bwd, 1.5, 2 * math.pi, samples=9)
        assert all(vf == pytest.approx(-vb, abs=1e-6) for vf, vb in zip(b_f, b_b))
        assert all(abs(abs(vb) - 1.5**2) <= 1e-5 for vb in b_b)

    def test_density_independent_of_h(self):
        pair = make_time_pair()
        _, b1 = schrodinger_time_density(pair, 1.0, 1.0, samples=5)
        _, b2 = schrodinger_time_density(pair, 1.0, 7.0, samples=5)
        assert b1 == pytest.approx(b2, rel=1e-12)


class TestSpectrum:
    def test_fit_spectrum_residuals(self):
        alphas = [1.5, 3.0, 4.5]
        spec = fit_spectrum(["m1", "m2", "m3"], alphas, tol=1e-9)
        assert spec.quantum == pytest.approx(1.5)
        assert spec.multipliers == (1, 2, 3)
        assert spec.residuals == tuple(abs(a - n * spec.quantum)
                                       for a, n in zip(alphas, spec.multipliers))
        assert all(r <= 1e-9 for r in spec.residuals)
        assert spec.h == pytest.approx(6.0)

    def test_one_rule_for_h(self):
        # The spectrum and `eigenforge enumerate` take h from the one rule h = 4 I.
        spec = fit_spectrum(["m1"], [0.7])
        assert h_from_quantum(0.7) == 2.8
        assert spec.h == h_from_quantum(0.7)
