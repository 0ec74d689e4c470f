"""Separable field solver tests: string benchmark, coupling, balance residual."""

import functools
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    NEUMANN,
    count_assemblies,
    coupled_spec,
    make_string_spec,
    make_unit_problem,
)
from eigenforge import polynomials, sigma_model, sturm_liouville
from eigenforge.action import TIME_PAIR_DEGREE, make_time_pair
from eigenforge.errors import ConditioningError, DomainError, NonConvergenceError
from eigenforge.polynomials import (
    LegendreSeries,
    chebyshev_fit,
    integrate_product,
    poly,
)
from eigenforge.sigma_model import (
    CoeffField,
    DimensionSpec,
    IterationReport,
    ModeSpec,
    SeparableEigenstate,
    SigmaModelSpec,
    effective_coeffs,
    null_postulate_residual,
    solve_state,
)
from eigenforge.sturm_liouville import DIRICHLET, EigenPair, SLProblem
from eigenforge.sturm_liouville import solve as sl_solve


class TestStringBenchmark:
    @pytest.mark.parametrize("mode", [1, 2])
    def test_frequencies_match_mode_number(self, string_spec, mode):
        state, report = solve_state(string_spec, f"m{mode}", (mode,))
        assert report.converged
        assert state.space_factors[0].lambda_ == pytest.approx(mode**2, abs=1e-9)
        assert state.omega == pytest.approx(float(mode), abs=1e-8)

    def test_ground_mode_converges_in_one_sweep(self, string_spec):
        state, report = solve_state(string_spec, "m1", (1,))
        assert report.iterations == 1
        assert report.converged

    def test_indicial_residual_small(self, string_spec):
        state, _ = solve_state(string_spec, "m2", (2,))
        assert state.indicial_residual() <= 1e-10

    def test_factors_normalized(self, string_spec):
        state, _ = solve_state(string_spec, "m3", (3,))
        for norm in state.space_norms:
            assert norm == pytest.approx(1.0, abs=1e-10)
        r_t = string_spec.time_dim.r
        for tf in state.time_factors:
            assert integrate_product(r_t, tf.u, tf.u) == pytest.approx(1.0, abs=1e-10)

    def test_space_factor_matches_sine(self, string_spec):
        state, _ = solve_state(string_spec, "m2", (2,))
        xs = np.linspace(0.0, math.pi, 101)
        exact = math.sqrt(2.0 / math.pi) * np.sin(2 * xs)
        got = state.space_factors[0].u.values(xs)
        assert float(np.abs(got - exact).max()) < 1e-7


class TestNullPostulateResidual:
    def test_converged_state_balances(self, string_spec):
        state, _ = solve_state(string_spec, "m1", (1,))
        assert null_postulate_residual(string_spec, state) <= 1e-8

    def test_higher_mode_balances(self, string_spec):
        state, _ = solve_state(string_spec, "m3", (3,))
        assert null_postulate_residual(string_spec, state) <= 1e-8

    def test_detuned_frequency_breaks_balance(self, string_spec):
        state, _ = solve_state(string_spec, "m1", (1,))
        bad = replace(state, omega=state.omega * 1.1)
        assert null_postulate_residual(string_spec, bad) > 1e-2

    def test_zero_field_degenerate_zero(self, string_spec):
        state, _ = solve_state(string_spec, "m1", (1,), amplitude=0.0)
        assert null_postulate_residual(string_spec, state) == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-40, 1e-60])
    def test_reads_the_same_at_every_scale(self, string_spec, scale):
        # The unit string with its P space factor scaled: the gap is relative
        # to the larger side, so a 10 % detuning reads 1 - 1/1.1^2 = 0.174 on
        # every scale and the converged state stays at rounding.
        space_iv, time_iv = string_spec.space_dims[0].interval, string_spec.time_dim.interval
        spec = replace(string_spec, P=CoeffField(
            terms=((poly([scale], space_iv), poly([1.0], time_iv)),)))
        state, _ = solve_state(spec, "m1", (1,))
        assert null_postulate_residual(spec, state) <= 1e-13
        bad = replace(state, omega=state.omega * 1.1)
        assert null_postulate_residual(spec, bad) == pytest.approx(1.0 - 1.0 / 1.21, rel=1e-12)


class TestEffectiveCoeffs:
    def test_constant_field_passes_through(self, string_spec):
        state, _ = solve_state(string_spec, "m1", (1,))
        p_eff, q_eff = effective_coeffs(string_spec, state, 0, (0,))
        # Computed coefficients are Legendre series, in a linear model too.
        assert type(p_eff) is type(q_eff) is LegendreSeries
        assert p_eff.coeffs == pytest.approx((1.0,), abs=1e-14)
        assert q_eff.coeffs == (0.0,) or max(abs(c) for c in q_eff.coeffs) < 1e-14

    def test_separable_term_collapses_to_average(self):
        # P = 1 * f(tau) with f = 1 + tau: the space-side effective coefficient
        # is the time average of f under the normalized time factor.
        space_iv = (0.0, math.pi)
        time_iv = (0.0, math.pi / 2)
        space = DimensionSpec(space_iv, poly([1.0], space_iv), DIRICHLET)
        time = DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
        p_field = CoeffField(terms=((poly([1.0], space_iv), poly([1.0, 1.0], time_iv)),))
        q_field = CoeffField(terms=())
        spec = SigmaModelSpec((space,), time, p_field, q_field)
        state, _ = solve_state(spec, "m1", (1,))
        p_eff, _ = effective_coeffs(spec, state, 0, (0,))
        u_t = state.time_factors[0].u
        f = poly([1.0, 1.0], time_iv)
        expected = integrate_product(f, u_t, u_t) / integrate_product(u_t, u_t)
        assert p_eff.degree == 0
        assert p_eff.coeffs[0] == pytest.approx(expected, rel=1e-12)

    def test_linear_case_amplitude_independent(self, string_spec):
        s1, _ = solve_state(string_spec, "m1", (1,), amplitude=1.0)
        s2, _ = solve_state(string_spec, "m1", (1,), amplitude=3.0)
        p1, q1 = effective_coeffs(string_spec, s1, 0, (0,))
        p2, q2 = effective_coeffs(string_spec, s2, 0, (0,))
        assert p1.coeffs == pytest.approx(p2.coeffs)
        assert q1.coeffs == pytest.approx(q2.coeffs)

    def test_each_monomial_converted_once(self, monkeypatch):
        # Term factors and weights are read in every sweep and every
        # quadrature; each is converted to a series at most once and keeps
        # it. Equal monomials are distinct objects here, so a value may be
        # converted once per object holding it. The reference pencils' own
        # constants, on (-1, 1), are not counted.
        spec = coupled_spec((1.3, 2.1), (DIRICHLET, NEUMANN), 0.05)
        monomials = [dim.r for dim in spec.dimensions] + list(spec.P.terms[0])
        calls = []
        convert = polynomials._legendre_coeffs

        def counted(coeffs, interval):
            if interval != (-1.0, 1.0):
                calls.append((coeffs, interval))
            return convert(coeffs, interval)

        monkeypatch.setattr(polynomials, "_legendre_coeffs", counted)
        _, report = solve_state(spec, "m11", (1, 1))
        assert report.iterations > 1
        assert calls and Counter(calls) <= Counter((f.coeffs, f.interval) for f in monomials)


def box_spec():
    """Linear box (0, 1) x (0, 2) with unit coefficients."""
    iv1, iv2 = (0.0, 1.0), (0.0, 2.0)
    time_iv = (0.0, math.pi / 2)
    d1 = DimensionSpec(iv1, poly([1.0], iv1), DIRICHLET)
    d2 = DimensionSpec(iv2, poly([1.0], iv2), DIRICHLET)
    time = DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
    p_field = CoeffField(terms=((poly([1.0], iv1), poly([1.0], iv2), poly([1.0], time_iv)),))
    return SigmaModelSpec((d1, d2), time, p_field, CoeffField(terms=()))


class TestLinearTensorProduct:
    def test_matches_independent_eigensolve(self, string_spec):
        state, _ = solve_state(string_spec, "m2", (2,))
        iv = (0.0, math.pi)
        prob = SLProblem(poly([1.0], iv), poly([0.0], iv), poly([1.0], iv), DIRICHLET)
        pairs, _ = sl_solve(prob, num_modes=2, k_tol=1e-12, max_degree=40)
        ref = pairs[1].u
        got = state.space_factors[0].u
        n = max(len(ref.coeffs), len(got.coeffs))
        a = np.zeros(n); a[: len(ref.coeffs)] = ref.coeffs
        b = np.zeros(n); b[: len(got.coeffs)] = got.coeffs
        assert float(np.abs(a - b).max()) <= 1e-10

    def test_two_space_dimensions_factorize(self):
        iv1, iv2 = (0.0, 1.0), (0.0, 2.0)
        state, report = solve_state(box_spec(), "m11", (1, 2))
        assert report.converged
        for d, (iv, target) in enumerate([(iv1, 1), (iv2, 2)]):
            prob = SLProblem(poly([1.0], iv), poly([0.0], iv), poly([1.0], iv), DIRICHLET)
            pairs, _ = sl_solve(prob, num_modes=target, k_tol=1e-12, max_degree=40)
            ref = pairs[target - 1].u
            got = state.space_factors[d].u
            n = max(len(ref.coeffs), len(got.coeffs))
            a = np.zeros(n); a[: len(ref.coeffs)] = ref.coeffs
            b = np.zeros(n); b[: len(got.coeffs)] = got.coeffs
            assert float(np.abs(a - b).max()) <= 1e-10
        lam_sum = state.lambda_space_sum()
        assert state.omega == pytest.approx(math.sqrt(lam_sum), rel=1e-12)

    def test_converged_state_action_scales_with_amplitude(self, string_spec):
        from eigenforge.action import action_for_state

        s1, _ = solve_state(string_spec, "m1", (1,), amplitude=1.0)
        s2, _ = solve_state(string_spec, "m1", (1,), amplitude=2.0)
        assert action_for_state(s1) == pytest.approx(math.pi / 2, rel=1e-6)
        assert action_for_state(s2) == pytest.approx(2 * math.pi, rel=1e-6)

    def test_field_finite_on_grid(self, string_spec):
        state, _ = solve_state(string_spec, "m2", (2,))
        xs = np.linspace(0.0, math.pi, 33)
        ts = np.linspace(0.0, math.pi / 2, 33)
        ux = state.space_factors[0].u.values(xs)
        for ell in range(state.components):
            ut = state.time_factors[ell].u.values(ts)
            psi = state.amplitude * np.outer(ux, ut)
            assert np.all(np.isfinite(psi))


class TestNonlinearCoupling:
    def test_small_coupling_shifts_effective_eigenvalue_first_order(self):
        g = 0.01
        spec = make_string_spec(coupling_g=g)
        state, report = solve_state(spec, "m1", (1,), tol=1e-10, max_iter=200)
        assert report.converged
        # first-order shift of the effective eigenvalue:
        # delta(lambda) = -g * m4_time * int u0^4 dx
        m4_time = 3.0 / math.pi
        int_u4 = 3.0 / (2.0 * math.pi)
        lam_pred = 1.0 - g * m4_time * int_u4
        assert state.space_factors[0].lambda_ == pytest.approx(lam_pred, abs=5e-4)
        assert abs(state.space_factors[0].lambda_ - 1.0) > 1e-4
        # the balance pinning cancels the first-order frequency shift
        assert abs(state.omega - 1.0) < g

    def test_changes_eventually_monotone(self):
        spec = make_string_spec(coupling_g=0.01)
        _, report = solve_state(spec, "m1", (1,), tol=1e-10, max_iter=200)
        changes = report.factor_changes
        tail = changes[5:] if len(changes) > 5 else changes
        assert all(b <= a * 1.0000001 for a, b in zip(tail[:-1], tail[1:]))

    def test_balance_holds_under_coupling(self):
        spec = make_string_spec(coupling_g=0.01)
        state, _ = solve_state(spec, "m1", (1,), tol=1e-10, max_iter=200)
        assert null_postulate_residual(spec, state) <= 1e-6


class TestCoupledConvergence:
    # The string's second mode converges only under a function-space change
    # measure; the overtone sits in a length band where an iteration-capped
    # eigensolve gave up.
    def test_string_second_mode(self):
        spec = make_string_spec(coupling_g=0.01)
        state, report = solve_state(spec, "m2", (2,), tol=1e-10, max_iter=200)
        assert report.converged
        assert report.iterations <= 6
        assert null_postulate_residual(spec, state) <= 1e-6

    def test_neumann_overtone_strong_coupling(self):
        spec = coupled_spec((2.348,), (NEUMANN,), 0.05)
        state, report = solve_state(spec, "m1", (2,), tol=1e-10, max_iter=200)
        assert report.converged
        assert report.iterations <= 6
        assert null_postulate_residual(spec, state) <= 1e-6

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_string_first_three_modes(self, mode):
        # The third mode's eigensolve once failed the boundary gate in every
        # sweep: squaring a monomial factor of degree 30 lost every digit.
        spec = make_string_spec(coupling_g=0.01)
        state, report = solve_state(spec, f"m{mode}", (mode,), tol=1e-10, max_iter=200)
        assert report.converged
        assert null_postulate_residual(spec, state) <= 1e-6

    @pytest.mark.parametrize("g", [0.01, 0.05])
    @pytest.mark.parametrize("target", [3, 4])
    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["DD", "NN"])
    def test_higher_modes_converge(self, bc, target, g):
        spec = coupled_spec((2.1,), (bc,), g)
        state, report = solve_state(spec, "m", (target,), tol=1e-10, max_iter=200)
        assert report.converged
        assert null_postulate_residual(spec, state) <= 1e-6

    # Strong couplings drive the factors past degree 8; the balance holds only
    # if the solve couples through the same exact u u the residual integrates.
    @pytest.mark.parametrize("target,g", [(4, 1.0), (3, 5.0)], ids=["DD-4-g1", "DD-3-g5"])
    def test_strong_coupling_balances(self, target, g):
        spec = coupled_spec((2.1,), (DIRICHLET,), g)
        state, report = solve_state(spec, "m", (target,), tol=1e-10, max_iter=200)
        assert report.converged
        assert null_postulate_residual(spec, state) <= 1e-6

    @pytest.mark.parametrize("g", [0.01, 0.05])
    @pytest.mark.parametrize("bcs,targets", [
        ((DIRICHLET, DIRICHLET), (1, 2)),
        ((DIRICHLET, DIRICHLET), (2, 1)),
        ((NEUMANN, DIRICHLET), (2, 1)),
    ], ids=["DDxDD-1-2", "DDxDD-2-1", "NNxDD-2-1"])
    def test_two_dimensions_converge(self, bcs, targets, g):
        spec = coupled_spec((1.3, 2.1), bcs, g)
        state, report = solve_state(spec, "m", targets, tol=1e-10, max_iter=200)
        assert report.converged
        assert null_postulate_residual(spec, state) <= 1e-6

    def test_report_describes_returned_state(self):
        # The state returned is pinned on its own factors: pinning it again
        # changes nothing. One sweep is one recorded change.
        spec = coupled_spec((1.3, 2.1), (NEUMANN, DIRICHLET), 0.05)
        state, report = solve_state(spec, "m", (2, 1), tol=1e-10, max_iter=200)
        assert sigma_model._pin_time(spec, state) == state
        assert len(report.factor_changes) == report.iterations


class TestIntervalsOffZero:
    # An interval that does not start at 0: the affine map of the Chebyshev
    # points rounds an end of the positivity samples and of the factor-change
    # points just outside it.
    def test_linear_string_frequency(self):
        spec = coupled_spec((2.1,), (DIRICHLET,), 0.0, origin=1.0)
        assert spec.space_dims[0].interval == (1.0, 3.1)
        state, _ = solve_state(spec, "m1", (1,))
        assert abs(state.omega - math.pi / 2.1) <= 1e-12 * state.omega

    @pytest.mark.parametrize("bc,target", [(DIRICHLET, 1), (NEUMANN, 2)], ids=["DD1", "NN2"])
    def test_coupled_string_matches_the_one_at_zero(self, bc, target):
        # Sweeps compare factors at Chebyshev points; a shifted string is the
        # same problem, so it must converge to the same frequency.
        shifted, _ = solve_state(coupled_spec((2.1,), (bc,), 1.0, origin=1.0), "m", (target,))
        at_zero, _ = solve_state(coupled_spec((2.1,), (bc,), 1.0), "m", (target,))
        assert abs(shifted.omega - at_zero.omega) <= 1e-9 * at_zero.omega

    def test_tiny_string_frequency(self):
        # The starting factor's weighted norm is 1e-15 here; scaling it to 1
        # needs no floor, and the string solves like any other.
        L = 1e-15
        state, report = solve_state(coupled_spec((L,), (DIRICHLET,), 0.0), "m1", (1,))
        assert report.converged
        assert abs(state.omega - math.pi / L) <= 1e-12 * (math.pi / L)

    @pytest.mark.parametrize("L", [1e-15, math.pi], ids=["1e-15", "pi"])
    def test_indicial_residual_is_relative(self, L):
        # The eigenvalues scale as L^-2, about 1e31 at L = 1e-15; the residual
        # is relative to them, so both strings read rounding.
        state, _ = solve_state(coupled_spec((L,), (DIRICHLET,), 0.0), "m1", (1,))
        assert state.indicial_residual() <= 1e-14


def time_term_spec(lengths, bcs, p_coupling, components=2):
    """Terms with time factors: P = 1 (1 + tau) + (1 + x/5) 1, Q = (x/2) (0.3 + tau^2/5)
    with a Q coupling of 0.05 and the given P coupling."""
    ivs, time_iv = [(0.0, L) for L in lengths], (0.0, math.pi / 2)
    space = tuple(DimensionSpec(iv, poly([1.0], iv), bc) for iv, bc in zip(ivs, bcs))
    time = DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
    p_terms = (tuple(poly([1.0], iv) for iv in ivs) + (poly([1.0, 1.0], time_iv),),
               tuple(poly([1.0, 0.2], iv) for iv in ivs) + (poly([1.0], time_iv),))
    q_terms = ((poly([0.0, 0.5], ivs[0]),) + tuple(poly([1.0], iv) for iv in ivs[1:])
               + (poly([0.3, 0.0, 0.2], time_iv),),)
    return SigmaModelSpec(space, time, CoeffField(p_terms, coupling_g=p_coupling),
                          CoeffField(q_terms, coupling_g=0.05), components=components)


def unit_norm(u, r):
    """u scaled to unit r-weighted norm, as the solve scales its starting factors."""
    return u * (1.0 / math.sqrt(integrate_product(r, u, u)))


def given_state(spec, amplitude=1.3):
    """A state away from convergence: each space factor a normalized mix of
    two sines and a constant with eigenvalue 2 + d, and the solve's time pair."""
    factors = []
    for d, dim in enumerate(spec.space_dims):
        L = dim.interval[1]
        u = chebyshev_fit(lambda xs: np.sin(math.pi * xs / L) + 0.3 * np.sin(2 * math.pi * xs / L)
                          + 0.1, 24, dim.interval)
        factors.append(EigenPair(2.0 + d, unit_norm(u, dim.r), 24))
    pair = make_time_pair()
    r_t = spec.time_dim.r
    time_polys = (unit_norm(pair.u1, r_t), unit_norm(pair.u2, r_t))
    return SeparableEigenstate(
        label="given", space_factors=tuple(factors),
        time_factors=tuple(EigenPair(0.0, time_polys[ell % 2], 16)
                           for ell in range(spec.components)),
        omega=1.0, amplitude=amplitude, space_norms=())


PIN_MODELS = {
    "1d-coupled": lambda: coupled_spec((2.1,), (DIRICHLET,), 0.05),
    "2d-coupled": lambda: coupled_spec((1.3, 2.1), (DIRICHLET, NEUMANN), 0.05),
    "1d-time-terms": lambda: time_term_spec((2.1,), (DIRICHLET,), 0.0),
    "1d-p-coupling": lambda: time_term_spec((2.1,), (NEUMANN,), 0.02),
    "2d-p-coupling-3-components": lambda: time_term_spec((1.3, 2.1), (DIRICHLET, DIRICHLET),
                                                         0.02, components=3),
}


def count_pins(monkeypatch):
    calls = []

    def counted(spec, state):
        calls.append(state)
        return pin_time(spec, state)

    pin_time = sigma_model._pin_time
    monkeypatch.setattr(sigma_model, "_pin_time", counted)
    return calls


class TestPinTime:
    # The pin solves the space/time balance for the frequency from the
    # quadrature of the time dimension's effective coefficients; this checks
    # that algebra on a state away from convergence.
    @pytest.mark.parametrize("model", list(PIN_MODELS))
    def test_matches_direct_quadrature(self, model):
        spec = PIN_MODELS[model]()
        state = given_state(spec)
        pinned = sigma_model._pin_time(spec, state)

        lam_sum = state.lambda_space_sum()
        r_t = spec.time_dim.r
        per_component = []
        for ell, factor in enumerate(state.time_factors):
            u, du = factor.u, factor.u.derivative()
            p_eff, q_eff = effective_coeffs(spec, state, spec.time_index, (ell,))
            per_component.append((integrate_product(p_eff, du, du),
                                  integrate_product(q_eff, u, u), integrate_product(r_t, u, u)))
        kinetic, potential, mass = (sum(column) for column in zip(*per_component))
        omega_sq = (lam_sum * mass + potential) / kinetic
        assert pinned.omega == pytest.approx(math.sqrt(omega_sq), rel=1e-12)
        for factor, (k, v, m) in zip(pinned.time_factors, per_component, strict=True):
            assert factor.lambda_ == pytest.approx((omega_sq * k - v) / m, rel=1e-12)

    # Terms that depend on time give each component its own time coefficients;
    # the balance holds only if the pin solves it on the components' sums.
    @pytest.mark.parametrize("model", ["1d-time-terms", "1d-p-coupling",
                                       "2d-p-coupling-3-components"])
    def test_time_dependent_terms_balance(self, model):
        spec = PIN_MODELS[model]()
        targets = (1,) * len(spec.space_dims)
        state, report = solve_state(spec, "m", targets, tol=1e-10, max_iter=200)
        assert report.converged
        assert null_postulate_residual(spec, state) <= 1e-6
        assert state.indicial_residual() <= 1e-12

    def test_converged_solve_pins_once(self, monkeypatch):
        # No sweep reads the frequency, so a solve pins it once, on the
        # converged factors.
        spec = coupled_spec((1.3, 2.1), (DIRICHLET, NEUMANN), 0.05)
        pins = count_pins(monkeypatch)
        state, report = solve_state(spec, "m", (1, 2), tol=1e-10, max_iter=200)
        assert report.converged and report.iterations > 1
        assert len(pins) == 1
        assert pins[0].space_factors == state.space_factors

    @pytest.mark.parametrize("model", list(PIN_MODELS))
    def test_space_problem_is_component_average(self, model):
        spec = PIN_MODELS[model]()
        state = given_state(spec)
        for d, dim in enumerate(spec.space_dims):
            averaged = effective_coeffs(spec, state, d, range(spec.components))
            per_component = [effective_coeffs(spec, state, d, (ell,))
                             for ell in range(spec.components)]
            xs = np.linspace(*dim.interval, 33)
            for got, effs in zip(averaged, zip(*per_component), strict=True):
                expected = sum(f.values(xs) for f in effs) / spec.components
                err = float(np.abs(got.values(xs) - expected).max())
                assert err <= 1e-12 * float(np.abs(expected).max())

    @pytest.mark.parametrize("field", ["P", "Q"])
    def test_coupling_enters_time_coefficient(self, field):
        # By hand on the time dimension of a coupled 1-D model: each term's
        # time factor times its space factor's average, plus g A^2 times the
        # space factor's fourth moment ratio times the projected u_t^2.
        spec = time_term_spec((2.1,), (DIRICHLET,), 0.02)
        state = given_state(spec)
        x = spec.space_dims[0]
        u_x = state.space_factors[0].u
        norm = integrate_product(u_x, u_x, x.r)
        coeff = spec.P if field == "P" else spec.Q
        for ell, factor in enumerate(state.time_factors):
            ts = np.linspace(*spec.time_dim.interval, 33)
            expected = sum(term[1].values(ts) * integrate_product(term[0], u_x, u_x, x.r) / norm
                           for term in coeff.terms)
            m4 = integrate_product(u_x, u_x, u_x, u_x, x.r) / norm
            expected = expected + (coeff.coupling_g * state.amplitude ** 2 * m4
                                   * factor.u.square.values(ts))
            got = effective_coeffs(spec, state, spec.time_index, (ell,))[0 if field == "P" else 1]
            assert float(np.abs(got.values(ts) - expected).max()) <= 1e-12 * float(
                np.abs(expected).max())

    def test_time_side_work_does_not_grow_with_sweeps(self, monkeypatch):
        # Counts the quadratures on the time interval, memo hits aside: the
        # time pair is built first, since its own quadratures are made once.
        spec = coupled_spec((1.3, 2.1), (DIRICHLET, DIRICHLET), 0.05)
        time_iv = spec.time_dim.interval
        make_time_pair()
        counts = []
        node_values = polynomials.node_values

        def counted(n, *factors):
            if factors[0].interval == time_iv:
                counts[-1] += 1
            return node_values(n, *factors)

        monkeypatch.setattr(polynomials, "node_values", counted)
        sweeps = []
        for tol in (1e-5, 1e-10):
            integrate_product.cache_clear()
            sigma_model._unit_norm.cache_clear()
            counts.append(0)
            _, report = solve_state(spec, "m", (1, 2), tol=tol, max_iter=200)
            sweeps.append(report.iterations)
        assert sweeps[0] < sweeps[1]
        assert counts[0] == counts[1] > 0


class TestFactorMemo:
    # _unit_norm keeps unit-norm scalings by value, so every solve shares the
    # time factor objects and the squares kept on them; a solve that reads
    # them returns what one that computes them does.
    def test_warm_results_equal_cold(self):
        spec = coupled_spec((1.3, 2.1), (DIRICHLET, NEUMANN), 0.05)
        sigma_model._unit_norm.cache_clear()
        cold, _ = solve_state(spec, "m", (1, 2))
        hits = sigma_model._unit_norm.cache_info().hits
        warm, _ = solve_state(spec, "m", (1, 2))
        assert sigma_model._unit_norm.cache_info().hits > hits
        assert all(got.u is ref.u for got, ref in zip(warm.time_factors, cold.time_factors))
        assert warm.omega == cold.omega
        for got, ref in zip(warm.space_factors + warm.time_factors,
                            cold.space_factors + cold.time_factors, strict=True):
            assert got.u.coeffs == ref.u.coeffs and got.lambda_ == ref.lambda_

    def test_kept_square_equals_fresh(self):
        spec = coupled_spec((1.3, 2.1), (DIRICHLET, NEUMANN), 0.05)
        state, _ = solve_state(spec, "m", (1, 2))
        for factor in state.space_factors + state.time_factors:
            u = factor.u
            kept = u.square
            fresh = type(u)(u.coeffs, u.interval).square
            assert u.square is kept
            assert [c.hex() for c in fresh.coeffs] == [c.hex() for c in kept.coeffs]


class TestFactorChange:
    # A factor's change is the r-weighted L2 norm of old minus new.
    @pytest.mark.parametrize("length", [1.0, math.pi, 3.7])
    def test_orthonormal_modes_differ_by_root_two(self, length):
        # The Dirichlet modes 1 and 2 on (0, L) with r = 1 are orthonormal,
        # so |u1 - u2|^2 = |u1|^2 + |u2|^2 = 2.
        prob = make_unit_problem((0.0, length), DIRICHLET)
        pairs, _ = sl_solve(prob, num_modes=2, k_tol=1e-12)
        change = sigma_model._change(pairs[0].u, pairs[1].u, prob.r)
        assert change == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_matches_dense_gauss_legendre(self):
        # r = 1 + x and factors of degrees 5 and 12, against 120 nodes of
        # numpy's Gauss-Legendre rule on numpy's own series evaluation.
        iv = (0.5, 2.3)
        rng = np.random.default_rng(7)
        old = LegendreSeries(tuple(rng.standard_normal(6)), iv)
        new = LegendreSeries(tuple(rng.standard_normal(13)), iv)
        r = poly([1.0, 1.0], iv)
        t, w = np.polynomial.legendre.leggauss(120)
        x = 0.5 * (iv[0] + iv[1]) + 0.5 * (iv[1] - iv[0]) * t
        d = (np.polynomial.Legendre(old.coeffs, domain=iv)(x)
             - np.polynomial.Legendre(new.coeffs, domain=iv)(x))
        expected = math.sqrt(0.5 * (iv[1] - iv[0]) * np.sum(w * (1.0 + x) * d * d))
        assert sigma_model._change(old, new, r) == pytest.approx(expected, rel=1e-13)

    def test_unchanged_factor_reads_zero(self):
        u = LegendreSeries((0.3, -1.2, 0.7), (0.0, 2.0))
        assert sigma_model._change(u, u, poly([1.0, 1.0], (0.0, 2.0))) == 0.0

    def test_traced_and_untraced_solves_leave_the_same_memo_traffic(self, monkeypatch):
        # A benchmark tracer swaps the module's integrate_product for a
        # functools.wraps wrapper. The factor changes reach the quadrature
        # through the module's integrate_product like every other integral,
        # so a field solve leaves the memo with the same traffic, wrapped or not.
        spec = coupled_spec((1.0,), (NEUMANN,), 0.5)

        def memo_traffic():
            integrate_product.cache_clear()
            sigma_model._unit_norm.cache_clear()
            state, report = solve_state(spec, "m", (2,))
            assert report.iterations > 1
            return integrate_product.cache_info()

        memo_traffic()  # builds the time pair, which the memo then never sees again
        plain = memo_traffic()

        @functools.wraps(integrate_product)
        def traced(*factors):
            return integrate_product(*factors)

        monkeypatch.setattr(sigma_model, "integrate_product", traced)
        assert memo_traffic() == plain


def count_eigensolves(monkeypatch):
    calls = []

    def counted(problem, **kwargs):
        calls.append(problem)
        return sl_solve(problem, **kwargs)

    monkeypatch.setattr(sigma_model, "sl_solve", counted)
    return calls


def varying_box_spec():
    """Linear box (0, 1) x (0, 2) with P = (1 + 0.4 x) + (1 + 0.3 y): each
    dimension's frozen p is its own term plus the other term's average over
    the other factor, so it moves with that factor."""
    iv1, iv2 = (0.0, 1.0), (0.0, 2.0)
    time_iv = (0.0, math.pi / 2)
    d1 = DimensionSpec(iv1, poly([1.0], iv1), DIRICHLET)
    d2 = DimensionSpec(iv2, poly([1.0], iv2), NEUMANN)
    time = DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
    p_field = CoeffField(terms=((poly([1.0, 0.4], iv1), poly([1.0], iv2), poly([1.0], time_iv)),
                                (poly([1.0], iv1), poly([1.0, 0.3], iv2), poly([1.0], time_iv))))
    return SigmaModelSpec((d1, d2), time, p_field, CoeffField(terms=()))


def rederiving_solve(spec, targets, tol=1e-10):
    """``solve_state`` with every space dimension's problem derived in every
    sweep: the loop before the input rule, kept as the reference."""
    pair = make_time_pair()
    r_t = spec.time_dim.r
    time_polys = (sigma_model._unit_norm(pair.u1, r_t), sigma_model._unit_norm(pair.u2, r_t))
    state = SeparableEigenstate(
        label="m",
        space_factors=tuple(
            EigenPair(0.0, sigma_model._unit_norm(LegendreSeries((1.0,), dim.interval), dim.r), 0)
            for dim in spec.space_dims),
        time_factors=tuple(EigenPair(0.0, time_polys[ell % 2], TIME_PAIR_DEGREE)
                           for ell in range(spec.components)),
        omega=1.0, amplitude=1.0, space_norms=())
    report = IterationReport()
    solved = [None] * len(spec.space_dims)
    for sweep in range(sigma_model.MAX_SWEEPS + 1):
        worst = 0.0
        for d, dim in enumerate(spec.space_dims):
            problem = SLProblem(*effective_coeffs(spec, state, d, range(spec.components)),
                                dim.r, dim.bc)
            if problem == solved[d]:
                continue
            old = state.space_factors[d]
            pairs, _ = sl_solve(problem, num_modes=targets[d], k_tol=sigma_model.SL_K_TOL,
                                max_degree=sigma_model.SL_MAX_DEGREE)
            new = pairs[targets[d] - 1]
            factors = state.space_factors
            state = replace(state, space_factors=factors[:d] + (new,) + factors[d + 1:])
            solved[d] = problem
            if sweep > 0:
                worst = max(worst, sigma_model._change(old.u, new.u, dim.r))
        if sweep == 0:
            continue
        report.factor_changes.append(worst)
        if worst < tol:
            report.converged = True
            break
    return sigma_model._pin_time(spec, state), report


def count_space_derivations(monkeypatch):
    """The dimension of every space-problem derivation from now on; the
    time pin's derivations are left out."""
    calls, derive = [], sigma_model.effective_coeffs

    def counted(spec, state, dim_index, components):
        if dim_index < spec.time_index:
            calls.append(dim_index)
        return derive(spec, state, dim_index, components)

    monkeypatch.setattr(sigma_model, "effective_coeffs", counted)
    return calls


SKIP_MODELS = {
    "string-1": (lambda: make_string_spec(), (1,)),
    "string-2": (lambda: make_string_spec(), (2,)),
    "string-3": (lambda: make_string_spec(), (3,)),
    "box": (box_spec, (1, 2)),
    "varying-box": (varying_box_spec, (1, 2)),
    "1d-coupled": (lambda: coupled_spec((2.1,), (DIRICHLET,), 0.5), (1,)),
    "2d-coupled": (lambda: coupled_spec((1.3, 2.1), (DIRICHLET, NEUMANN), 0.5), (1, 2)),
}


class TestUnchangedProblemSkip:
    # These linear models' frozen problems do not move once sweep 0 has
    # solved them, so sweep 1 finds every problem unchanged and solves none.
    @pytest.mark.parametrize("model,targets", [
        ("string", (1,)), ("string", (3,)), ("box", (1, 2)), ("box", (2, 1)),
    ])
    def test_linear_model_solves_each_dimension_once(self, monkeypatch, string_spec,
                                                     model, targets):
        spec = string_spec if model == "string" else box_spec()
        calls = count_eigensolves(monkeypatch)
        _, report = solve_state(spec, "m", targets)
        assert len(calls) == len(spec.space_dims)
        assert report.iterations == 1
        assert report.factor_changes == [0.0]
        assert report.converged

    def test_coupled_model_solves_every_sweep(self, monkeypatch):
        spec = coupled_spec((1.3, 2.1), (DIRICHLET, NEUMANN), 0.05)
        calls = count_eigensolves(monkeypatch)
        _, report = solve_state(spec, "m", (1, 2), tol=1e-10, max_iter=200)
        assert report.converged and report.iterations > 1
        assert len(calls) == len(spec.space_dims) * (report.iterations + 1)

    def test_modes_of_a_constant_model_assemble_no_pencil(self, monkeypatch):
        # The unit string's frozen problem has constant coefficients: its
        # modes read the kept reference pencil, built here once for the
        # Dirichlet pair, and no pencil of their own.
        spec = make_string_spec(num_modes=3)
        sturm_liouville._reference_sequence.cache_clear()
        assemblies = count_assemblies(monkeypatch)
        calls = count_eigensolves(monkeypatch)
        for mode in spec.modes:
            solve_state(spec, mode.label, mode.targets)
        assert len(calls) == 3 and len(set(calls)) == 1
        assert assemblies == [sigma_model.SL_MAX_DEGREE]  # the reference's

    def test_kept_factor_matches_a_fresh_solve(self, string_spec):
        # The skip is exact: the eigensolve is a function of its problem, so
        # solving the unchanged problem again returns the kept factor bit for bit.
        state, _ = solve_state(string_spec, "m2", (2,))
        kept = state.space_factors[0]
        dim = string_spec.space_dims[0]
        problem = SLProblem(*effective_coeffs(string_spec, state, 0, range(state.components)),
                            dim.r, dim.bc)
        pairs, _ = sl_solve(problem, num_modes=2,
                            k_tol=sigma_model.SL_K_TOL, max_degree=sigma_model.SL_MAX_DEGREE)
        assert pairs[1] == kept

    # A space problem is derived again only when one of its inputs changed:
    # another space factor, or its own factor in a coupled model.
    @pytest.mark.parametrize("model", SKIP_MODELS)
    def test_same_bits_as_rederiving_every_sweep(self, model):
        build, targets = SKIP_MODELS[model]
        spec = build()
        got, got_report = solve_state(spec, "m", targets)
        ref, ref_report = rederiving_solve(spec, targets)
        assert got_report.converged and ref_report.converged
        assert got_report.factor_changes == ref_report.factor_changes
        assert got.omega == ref.omega
        for a, b in zip(got.space_factors + got.time_factors,
                        ref.space_factors + ref.time_factors, strict=True):
            assert (a.u.coeffs, a.lambda_, a.degree_used) == (b.u.coeffs, b.lambda_, b.degree_used)

    def test_varying_model_moves_its_problems(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        _, report = solve_state(varying_box_spec(), "m", (1, 2))
        assert report.iterations > 1 and len(calls) > 2

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_uncoupled_string_derives_once(self, monkeypatch, mode):
        derivations = count_space_derivations(monkeypatch)
        solve_state(make_string_spec(), "m", (mode,))
        assert derivations == [0]

    def test_unit_box_tests_the_moved_input(self, monkeypatch):
        # Sweep 1 derives dimension 0 again, since dimension 1's factor moved
        # in sweep 0; its problem is unchanged, so dimension 1's inputs are not.
        derivations = count_space_derivations(monkeypatch)
        calls = count_eigensolves(monkeypatch)
        solve_state(box_spec(), "m", (1, 2))
        assert derivations == [0, 1, 0] and len(calls) == 2

    @pytest.mark.parametrize("model", ["1d-coupled", "2d-coupled"])
    def test_coupled_model_derives_every_sweep(self, monkeypatch, model):
        build, targets = SKIP_MODELS[model]
        spec = build()
        derivations = count_space_derivations(monkeypatch)
        _, report = solve_state(spec, "m", targets)
        assert report.iterations > 1
        n_space = len(spec.space_dims)
        assert derivations == list(range(n_space)) * (report.iterations + 1)


class TestDerivedFields:
    # A count that restates another field cannot be set apart from it.
    def test_iterations_count_factor_changes(self):
        assert IterationReport().iterations == 0
        assert IterationReport([0.5, 0.25, 0.0], converged=True).iterations == 3
        with pytest.raises(TypeError):
            IterationReport(iterations=3)

    def test_components_count_time_factors(self, string_spec):
        state = given_state(replace(string_spec, components=3), 1.0)
        assert state.components == 3
        assert replace(state, time_factors=state.time_factors[:1]).components == 1
        with pytest.raises(TypeError):
            replace(state, components=2)

    def test_dimension_interval_stored_as_floats(self):
        dim = DimensionSpec((0, 2), poly([1.0], (0.0, 2.0)), DIRICHLET)
        assert dim.interval == (0.0, 2.0)
        assert all(type(v) is float for v in dim.interval)


class TestValidation:
    def test_target_count_must_match_dimensions(self, string_spec):
        with pytest.raises(DomainError):
            solve_state(string_spec, "m1", (1, 1))

    def test_targets_are_one_based(self, string_spec):
        with pytest.raises(DomainError):
            solve_state(string_spec, "m1", (0,))

    @pytest.mark.parametrize("label,targets,where", [
        ("m1", (2.7,), "target_modes[0] is 2.7; target modes must be integers"),
        ("m1", (True,), "target_modes[0] is True; target modes must be integers"),
        (5, (1,), "label must be a string, got int"),
        ("m", (38,), "target_modes[0] is 38; a space factor's eigensolve (degree cap 40) "
                     "can track at most mode 37"),
    ], ids=["float", "bool", "label", "above-the-degree-cap"])
    def test_mode_types_checked(self, string_spec, monkeypatch, label, targets, where):
        # A target is not converted: 2.7 is not mode 2, and True is not mode 1.
        calls = count_eigensolves(monkeypatch)
        with pytest.raises(DomainError, match=re.escape(where)):
            solve_state(string_spec, label, targets)
        assert calls == []

    def test_weight_lives_on_the_interval(self):
        with pytest.raises(DomainError,
                           match="^weight polynomial must live on the dimension's interval$"):
            DimensionSpec((0.0, 1.0), poly([1.0], (0.0, 2.0)), DIRICHLET)

    def test_space_dimension_required(self, string_spec):
        with pytest.raises(DomainError, match="^need at least one space dimension$"):
            replace(string_spec, space_dims=())

    def test_term_arity_checked(self):
        iv = (0.0, 1.0)
        time_iv = (0.0, math.pi / 2)
        space = DimensionSpec(iv, poly([1.0], iv), DIRICHLET)
        time = DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
        with pytest.raises(DomainError):
            SigmaModelSpec((space,), time, CoeffField(terms=((poly([1.0], iv),),)),
                           CoeffField(terms=()))

    def test_term_factor_lives_on_its_dimension(self):
        spec = coupled_spec((1.3, 2.1), (DIRICHLET, DIRICHLET), 0.0)
        p_field = CoeffField(terms=((poly([1.0], (0.0, 1.3)), poly([1.0], (0.0, 1.3)),
                                     poly([1.0], spec.time_dim.interval)),))
        with pytest.raises(DomainError, match=r"P term 0 factor 1 .* of space_dims\[1\]"):
            replace(spec, P=p_field)

    def test_time_interval_is_quarter_period(self):
        time_iv = (0.0, 1.5)
        time = DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
        spec = make_string_spec()
        p_field = CoeffField(terms=((spec.P.terms[0][0], poly([1.0], time_iv)),))
        with pytest.raises(DomainError, match="time_dim interval must be"):
            replace(spec, time_dim=time, P=p_field)

    @pytest.mark.parametrize("components,match", [
        (0, "components must be between 1 and"),
        (sigma_model.MAX_COMPONENTS + 1, "components must be between 1 and"),
        (10**9, "components must be between 1 and"),
        (2.0, "^components must be an integer$"),
        (True, "^components must be an integer$"),
    ], ids=["0", str(sigma_model.MAX_COMPONENTS + 1), str(10**9), "float", "bool"])
    def test_component_count_bounded(self, string_spec, components, match):
        replace(string_spec, components=sigma_model.MAX_COMPONENTS)  # the bound is accepted
        with pytest.raises(DomainError, match=match):
            replace(string_spec, components=components)

    @pytest.mark.parametrize("targets,where", [((1, 38), "modes[0].targets[1] is 38"),
                                               ((39, 1), "modes[0].targets[0] is 39")],
                             ids=["second", "first"])
    def test_target_within_the_degree_cap(self, targets, where):
        # An eigensolve capped at degree 40 can stop on at most 37 modes.
        spec = box_spec()
        replace(spec, modes=(ModeSpec("m", (37, 1)),))  # the bound is accepted
        with pytest.raises(DomainError, match=re.escape(where)):
            replace(spec, modes=(ModeSpec("m", targets),))

    @pytest.mark.parametrize("label,targets,where", [
        ("bad", (1, 2), "modes[1].targets: need one target mode per space dimension (1)"),
        ("bad", (0,), "modes[1].targets[0] is 0; target modes are 1-based"),
        ("bad", (-3,), "modes[1].targets[0] is -3; target modes are 1-based"),
        ("bad", (2.7,), "modes[1].targets[0] is 2.7; target modes must be integers"),
        ("bad", (True,), "modes[1].targets[0] is True; target modes must be integers"),
        (5, (1,), "modes[1].label must be a string, got int"),
    ], ids=["count", "zero", "negative", "float", "bool", "label"])
    def test_bad_later_mode_refused_before_any_solve(self, string_spec, monkeypatch,
                                                     label, targets, where):
        # Solving a model's modes in turn, as ``eigenforge sigma`` does: a bad
        # second mode is refused when the model is built, before mode 0 is solved.
        calls = count_eigensolves(monkeypatch)
        with pytest.raises(DomainError, match=re.escape(where)):
            spec = replace(string_spec, modes=(ModeSpec("m1", (1,)), ModeSpec(label, targets)))
            for mode in spec.modes:
                solve_state(spec, mode.label, mode.targets)
        assert calls == []

    @pytest.mark.parametrize("weight", [[-1.0], [0.0], [1.0, -0.9]],
                             ids=["negative", "zero", "turns-negative"])
    @pytest.mark.parametrize("where", ["space_dims[0]", "time_dim"])
    def test_weight_must_be_positive(self, string_spec, monkeypatch, where, weight):
        # A weight that is not positive on its interval gives no norm to
        # normalize a factor under; it is refused when the model is built,
        # before any mode is solved. [1.0, -0.9] is positive at 0 only.
        calls = count_eigensolves(monkeypatch)
        with pytest.raises(DomainError, match=re.escape(f"{where}.r must be positive")):
            if where == "time_dim":
                dim = string_spec.time_dim
                spec = replace(string_spec, time_dim=replace(dim, r=poly(weight, dim.interval)))
            else:
                dim = string_spec.space_dims[0]
                spec = replace(string_spec,
                               space_dims=(replace(dim, r=poly(weight, dim.interval)),))
            for mode in spec.modes:
                solve_state(spec, mode.label, mode.targets)
        assert calls == []

    def test_max_iter_exhaustion_carries_report(self, string_spec, monkeypatch):
        spec = make_string_spec(coupling_g=0.05)
        pins = count_pins(monkeypatch)
        with pytest.raises(NonConvergenceError,
                           match="^state 'm1' not converged in 2 sweeps$") as exc:
            solve_state(spec, "m1", (1,), tol=1e-14, max_iter=2)
        assert exc.value.cause == "sweep_cap"
        assert exc.value.report is not None
        assert exc.value.report.iterations == 2
        assert pins == []  # a solve that gives up pins nothing

    def test_refused_problem_names_the_state(self):
        # P's coupling of -2 takes p below zero on the factor sweep 0 solved,
        # so sweep 1's frozen problem is refused.
        spec = make_string_spec()
        spec = replace(spec, P=replace(spec.P, coupling_g=-2.0))
        with pytest.raises(DomainError) as exc:
            solve_state(spec, "m1", (1,))
        assert str(exc.value) == ("state 'm1', space dimension 0, sweep 1: "
                                  "p must be positive on [0.0, 3.141592653589793]")
        assert type(exc.value.__cause__) is DomainError

    def test_conditioning_error_names_the_state(self):
        # On (0, 1e-300) the reference pencil's scale 1 / h^2 overflows.
        with pytest.raises(ConditioningError) as exc:
            solve_state(coupled_spec((1e-300,), (DIRICHLET,), 0.0), "m1", (1,))
        assert str(exc.value) == ("state 'm1', space dimension 0, sweep 0: reduced eigenproblem "
                                  "of size 1 is not finite: its Ritz values overflow")
        assert exc.value.cause == "overflow"
        assert type(exc.value.__cause__) is ConditioningError

    @pytest.mark.parametrize("max_iter,match", [
        (0, "max_iter must be at least 1 and at most MAX_SWEEPS = 200"),
        (-3, "max_iter must be at least 1 and at most MAX_SWEEPS = 200"),
        (201, "max_iter must be at least 1 and at most MAX_SWEEPS = 200"),
        (5.0, "^max_iter must be an integer$"),
        (True, "^max_iter must be an integer$"),
    ], ids=["0", "-3", "201", "float", "bool"])
    def test_sweep_cap_must_be_positive(self, string_spec, monkeypatch, max_iter, match):
        calls = count_eigensolves(monkeypatch)
        with pytest.raises(DomainError, match=match):
            solve_state(string_spec, "m1", (1,), max_iter=max_iter)
        assert calls == []

    @pytest.mark.parametrize("g", [0.0, 0.05], ids=["linear", "coupled"])
    @pytest.mark.parametrize("kwargs,match", [
        ({"tol": 0.0}, "^tol must be positive$"),
        ({"amplitude": math.nan}, "^amplitude must be finite, got nan$"),
        ({"amplitude": -math.inf}, "^amplitude must be finite, got -inf$"),
    ], ids=["zero-tol", "nan-amplitude", "infinite-amplitude"])
    def test_solve_arguments_refused_by_name(self, monkeypatch, g, kwargs, match):
        calls = count_eigensolves(monkeypatch)
        with pytest.raises(DomainError, match=match):
            solve_state(make_string_spec(coupling_g=g), "m1", (1,), **kwargs)
        assert calls == []


def timedep_spec():
    """The three-component model of the CI's CLI check: a P term that depends
    on time (1 + tau), a P coupling of 0.02 and a Q coupling of 0.05, over
    Dirichlet intervals of lengths 1.3 and 2.1."""
    ivs, time_iv = [(0.0, 1.3), (0.0, 2.1)], (0.0, math.pi / 2)
    space = tuple(DimensionSpec(iv, poly([1.0], iv), DIRICHLET) for iv in ivs)
    time = DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
    p_field = CoeffField(terms=(tuple(poly([1.0], iv) for iv in ivs)
                                + (poly([1.0, 1.0], time_iv),),), coupling_g=0.02)
    return SigmaModelSpec(space, time, p_field, CoeffField(terms=(), coupling_g=0.05),
                          components=3)


def per_bracket_null_residual(spec, state):
    """The null check written bracket by bracket: every bracket integrates
    every dimension of every term again."""
    dims = spec.dimensions

    def bracket(component, diff_dim):
        omega = state.omega
        amp2 = state.amplitude ** 2
        us = [state.factor_poly(component, d) for d in range(len(dims))]
        total = 0.0
        for coeff, is_p in ((spec.P, True), (spec.Q, False)):
            terms = [(amp2, [(f,) for f in term]) for term in coeff.terms]
            if coeff.coupling_g != 0.0:
                terms.append((coeff.coupling_g * amp2 * amp2, [(u, u) for u in us]))
            for prod, factors in terms:
                for d, (u, fs) in enumerate(zip(us, factors)):
                    if d != diff_dim:
                        val = integrate_product(*fs, u, u, dims[d].r)
                    elif is_p:
                        du = u.derivative()
                        val = integrate_product(*fs, du, du)
                    else:
                        val = integrate_product(*fs, u, u)
                    if d == spec.time_index:
                        val = val * omega if is_p and d == diff_dim else val / omega
                    prod *= val
                total += prod if is_p else -prod
        return total

    space_term = 0.0
    time_term = 0.0
    for ell in range(state.components):
        for d in range(len(spec.space_dims)):
            space_term += bracket(ell, d)
        time_term += bracket(ell, spec.time_index)
    scale = max(abs(space_term), abs(time_term))
    return abs(space_term - time_term) / scale if scale else 0.0


NULL_CASES = {
    "string-m2-coupled": lambda: (make_string_spec(coupling_g=0.01), (2,)),
    "2d-coupled": lambda: (coupled_spec((1.3, 2.1), (DIRICHLET, NEUMANN), 0.05), (1, 1)),
    "timedep-m12": lambda: (timedep_spec(), (1, 2)),
    "1d-time-terms": lambda: (time_term_spec((2.1,), (NEUMANN,), 0.02), (1,)),
}


class TestNullCheckIntegrals:
    # Each dimension is integrated twice per term and component, and every
    # bracket is formed from those values; the sums keep the per-bracket order,
    # so the residual is the per-bracket loop's to the last bit.
    @pytest.mark.parametrize("case", list(NULL_CASES))
    def test_equals_per_bracket_loop(self, case):
        spec, targets = NULL_CASES[case]()
        state, _ = solve_state(spec, "m", targets, tol=1e-10, max_iter=200)
        assert null_postulate_residual(spec, state) == per_bracket_null_residual(spec, state)

    # Two P terms, a Q term and both couplings: the residual of a detuned
    # state here changes when the terms are summed in another order.
    @pytest.mark.parametrize("case", ["timedep-m12", "1d-time-terms"])
    @pytest.mark.parametrize("factor", [0.97, 1.1])
    def test_detuned_state_equals_per_bracket_loop(self, case, factor):
        spec, targets = NULL_CASES[case]()
        state, _ = solve_state(spec, "m", targets, tol=1e-10, max_iter=200)
        bad = replace(state, omega=state.omega * factor)
        got = null_postulate_residual(spec, bad)
        assert got == per_bracket_null_residual(spec, bad)
        assert got > 1e-4  # detuning breaks the balance

    def test_two_integrals_per_dimension_term_and_component(self, monkeypatch):
        spec = timedep_spec()
        state, _ = solve_state(spec, "m12", (1, 2), tol=1e-10, max_iter=200)
        calls = []

        def counted(*factors):
            calls.append(factors)
            return integrate_product(*factors)

        monkeypatch.setattr(sigma_model, "integrate_product", counted)
        null_postulate_residual(spec, state)
        terms = len(spec.P.terms) + len(spec.Q.terms) + 2  # both couplings are terms
        assert terms == 3
        assert len(calls) == spec.components * terms * 2 * len(spec.dimensions) == 54


class TestUnitFactors:
    def test_time_factors_shared_across_solves(self):
        # The time pair's unit factors are computed once per (factor, weight).
        spec = coupled_spec((1.3, 2.1), (DIRICHLET, NEUMANN), 0.05)
        first, _ = solve_state(spec, "a", (1, 1))
        second, _ = solve_state(spec, "b", (1, 2))
        assert len(first.time_factors) == len(second.time_factors) == spec.components
        for a, b in zip(first.time_factors, second.time_factors):
            assert a.u is b.u


class TestZeroFrequency:
    # The Neumann ground state is the constant factor: its pinned omega^2 is
    # zero up to a couple of ulps of the balance's scale, of either sign.
    @pytest.mark.parametrize("g", [0.05, 10.0])
    def test_neumann_ground_state_vanishes_to_rounding(self, g):
        spec = coupled_spec((2.1,), (NEUMANN,), g)
        with pytest.raises(DomainError, match="vanishes to rounding.*a zero-frequency state"):
            solve_state(spec, "m1", (1,))

    # On the Neumann string over (0, pi) the coupling's sign decides the sign
    # of the rounding: omega^2 reads +1.7e-16 at g = -0.5 and -1.7e-16 at
    # g = +0.5, at scale 0.304. Both are the same zero, and both are refused.
    @pytest.mark.parametrize("g", [-0.5, 0.5])
    def test_refused_whatever_the_sign(self, g):
        spec = coupled_spec((math.pi,), (NEUMANN,), g)
        with pytest.raises(DomainError, match="vanishes to rounding.*a zero-frequency state"):
            solve_state(spec, "m1", (1,))

    def test_negative_frequency_squared_keeps_its_message(self):
        spec = coupled_spec((2.1,), (DIRICHLET,), 0.05)
        state = given_state(spec)
        state = replace(state, space_factors=tuple(replace(f, lambda_=-5.0)
                                                   for f in state.space_factors))
        with pytest.raises(DomainError, match="the space eigenvalue sum is too low"):
            sigma_model._pin_time(spec, state)
