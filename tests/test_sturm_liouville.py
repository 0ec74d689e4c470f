"""Eigensolver tests against analytic spectra and an independent reduction."""

import math

import numpy as np
import numpy.polynomial.legendre as leg
import pytest
import scipy.linalg

from eigenforge.errors import (
    ConditioningError,
    ConstraintError,
    DegenerateTrialError,
    DomainError,
    NonConvergenceError,
    PreconditionError,
)
from eigenforge.polynomials import Polynomial, integrate_product, poly
from eigenforge.sturm_liouville import (
    DIRICHLET,
    NEUMANN,
    BoundaryCondition,
    SLProblem,
    _assemble,
    _generalized_eigh,
    _recombination,
    boundary_residuals,
    rayleigh_quotient,
    residual,
    solve,
    solve_at_degree,
)

PI2 = math.pi * math.pi


def unit_problem(bc=DIRICHLET, interval=(0.0, 1.0)):
    one = poly([1.0], interval)
    zero = poly([0.0], interval)
    return SLProblem(one, zero, one, bc)


class TestProblemValidation:
    def test_intervals_must_match(self):
        with pytest.raises(DomainError):
            SLProblem(poly([1.0], (0, 1)), poly([0.0], (0, 2)), poly([1.0], (0, 1)), DIRICHLET)

    def test_p_must_be_positive(self):
        # x - 0.5 changes sign on (0, 1)
        with pytest.raises(DomainError):
            SLProblem(poly([-0.5, 1.0], (0, 1)), poly([0.0], (0, 1)), poly([1.0], (0, 1)), DIRICHLET)

    def test_r_must_be_positive(self):
        with pytest.raises(DomainError):
            SLProblem(poly([1.0], (0, 1)), poly([0.0], (0, 1)), poly([0.0], (0, 1)), DIRICHLET)

    def test_bad_bc_label(self):
        with pytest.raises(DomainError):
            BoundaryCondition("value", "robin")


class TestRayleighQuotient:
    def test_bubble_is_exactly_ten(self):
        prob = unit_problem()
        u = poly([0.0, 1.0, -1.0], (0.0, 1.0))
        assert rayleigh_quotient(prob, u) == pytest.approx(10.0, abs=1e-12)

    def test_matches_solver_eigenvalue(self):
        prob = unit_problem()
        pairs, _ = solve(prob, num_modes=1, k_tol=1e-10, max_degree=30)
        lam = pairs[0].lambda_
        assert rayleigh_quotient(prob, pairs[0].u) == pytest.approx(lam, rel=1e-10)

    def test_neumann_constant_gives_zero(self):
        prob = unit_problem(NEUMANN)
        assert rayleigh_quotient(prob, poly([1.0], (0.0, 1.0))) == pytest.approx(0.0, abs=1e-15)

    def test_zero_trial_rejected(self):
        with pytest.raises(DegenerateTrialError):
            rayleigh_quotient(unit_problem(), poly([0.0], (0.0, 1.0)))

    def test_boundary_violation_rejected(self):
        # u = 1 violates Dirichlet at both ends
        with pytest.raises(ConstraintError):
            rayleigh_quotient(unit_problem(), poly([1.0], (0.0, 1.0)))


class TestDirichletBenchmark:
    def test_first_two_eigenvalues(self):
        prob = unit_problem()
        pairs, trace = solve(prob, num_modes=2, k_tol=1e-10, max_degree=40)
        assert pairs[0].lambda_ == pytest.approx(PI2, rel=1e-9)
        assert pairs[1].lambda_ == pytest.approx(4 * PI2, rel=1e-8)

    def test_trace_starts_at_ten_and_never_increases(self):
        prob = unit_problem()
        _, trace = solve(prob, num_modes=2, k_tol=1e-10, max_degree=40)
        assert trace.entries[0][0] == 2
        assert trace.entries[0][1] == pytest.approx(10.0, abs=1e-12)
        lams = trace.lambdas
        for prev, cur in zip(lams[:-1], lams[1:]):
            assert cur <= prev + 1e-12 * (1.0 + abs(prev))

    def test_eigenfunction_matches_sine(self):
        prob = unit_problem()
        pairs, _ = solve(prob, num_modes=1, k_tol=1e-10, max_degree=40)
        xs = np.linspace(0.0, 1.0, 101)
        exact = math.sqrt(2.0) * np.sin(math.pi * xs)
        assert float(np.abs(pairs[0].u.values(xs) - exact).max()) < 1e-8

    def test_normalization_and_sign(self):
        # The sign makes u(a) positive, or u'(a) where the value vanishes; on
        # (1, 3) that is not the sign of the monomial extrapolation to x = 0.
        for bc in (DIRICHLET, NEUMANN):
            for interval in ((0.0, 1.0), (1.0, 3.0)):
                prob = unit_problem(bc, interval)
                pairs, _ = solve(prob, num_modes=3, k_tol=1e-10, max_degree=40)
                for pair in pairs:
                    nrm = integrate_product(prob.r, pair.u, pair.u)
                    assert abs(nrm - 1.0) <= 1e-10
                    lo = interval[0]
                    lead = pair.u(lo) if bc is NEUMANN else pair.u.derivative()(lo)
                    assert lead > 1e-3

    def test_orthonormality(self):
        prob = unit_problem()
        pairs, _ = solve(prob, num_modes=3, k_tol=1e-10, max_degree=40)
        for i, pi_ in enumerate(pairs):
            for j, pj in enumerate(pairs):
                inner = integrate_product(prob.r, pi_.u, pj.u)
                assert abs(inner - (1.0 if i == j else 0.0)) <= 1e-9

    def test_boundary_residuals_small(self):
        prob = unit_problem()
        pairs, _ = solve(prob, num_modes=2, k_tol=1e-10, max_degree=40)
        for pair in pairs:
            res_a, res_b = boundary_residuals(prob, pair.u)
            assert res_a <= 1e-12 and res_b <= 1e-12


class TestNeumann:
    def test_ground_mode_is_constant_zero(self):
        prob = unit_problem(NEUMANN)
        pairs, _ = solve(prob, num_modes=1, k_tol=1e-10, max_degree=20)
        assert abs(pairs[0].lambda_) <= 1e-12
        assert pairs[0].u.degree == 0
        assert residual(prob, pairs[0]) < 1e-12

    def test_excited_modes_match_cosines(self):
        prob = unit_problem(NEUMANN)
        pairs, _ = solve(prob, num_modes=3, k_tol=1e-10, max_degree=40)
        assert pairs[1].lambda_ == pytest.approx(PI2, rel=1e-8)
        assert pairs[2].lambda_ == pytest.approx(4 * PI2, rel=1e-7)
        for pair in pairs:
            res_a, res_b = boundary_residuals(prob, pair.u)
            assert res_a <= 1e-12 and res_b <= 1e-12


CONDITIONS = {"DD": DIRICHLET, "NN": NEUMANN,
              "DN": BoundaryCondition("value", "derivative"),
              "ND": BoundaryCondition("derivative", "value")}


def closed_form(kind, L, count):
    """Eigenvalues of -u'' = lam u on (0, L) under the named end conditions."""
    if kind == "DD":
        ks = [k + 1.0 for k in range(count)]
    elif kind == "NN":
        ks = [float(k) for k in range(count)]
    else:
        ks = [k + 0.5 for k in range(count)]
    return [(k * math.pi / L) ** 2 for k in ks]


class TestSixModes:
    # Six modes need degrees 24 to 27, where a monomial form of the
    # eigenfunctions misses the end conditions by up to 1e-3.
    @pytest.mark.parametrize("L", [1.0, 3.0])
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_unit_coefficients_converge(self, kind, L):
        prob = unit_problem(CONDITIONS[kind], (0.0, L))
        pairs, _ = solve(prob, num_modes=6, k_tol=1e-10, max_degree=40)
        for pair, exact in zip(pairs, closed_form(kind, L, 6), strict=True):
            assert abs(pair.lambda_ - exact) <= 1e-9 * (1.0 + exact)
            assert max(boundary_residuals(prob, pair.u)) <= 1e-12


class TestMixedBoundary:
    def test_value_at_a_derivative_at_b(self):
        # -u'' = lam u, u(0) = 0, u'(1) = 0 -> lam = ((2k+1) pi / 2)^2
        prob = unit_problem(BoundaryCondition("value", "derivative"))
        pairs, _ = solve(prob, num_modes=2, k_tol=1e-10, max_degree=40)
        assert pairs[0].lambda_ == pytest.approx((math.pi / 2) ** 2, rel=1e-9)
        assert pairs[1].lambda_ == pytest.approx((3 * math.pi / 2) ** 2, rel=1e-8)


class TestResidual:
    def test_converged_mode_small_residual(self):
        prob = unit_problem()
        pairs = solve_at_degree(prob, 16, num_modes=1)
        assert residual(prob, pairs[0]) < 1e-4

    def test_truncated_degree_two_large_residual(self):
        prob = unit_problem()
        pairs = solve_at_degree(prob, 2, num_modes=1)
        assert residual(prob, pairs[0]) > 0.1


class TestMonotonicityAndScaling:
    def test_lambda_nonincreasing_per_mode(self):
        prob = unit_problem()
        per_mode = []
        for degree in range(4, 22, 2):
            pairs = solve_at_degree(prob, degree, num_modes=2)
            per_mode.append([p.lambda_ for p in pairs])
        arr = np.array(per_mode)
        for m in range(2):
            diffs = np.diff(arr[:, m])
            assert bool(np.all(diffs <= 1e-12 * (1.0 + np.abs(arr[:-1, m]))))

    def test_domain_scaling_covariance(self):
        L = 2.5
        lam_unit = solve(unit_problem(), 1, 1e-10, 40)[0][0].lambda_
        lam_scaled = solve(unit_problem(interval=(0.0, L)), 1, 1e-10, 40)[0][0].lambda_
        assert lam_scaled == pytest.approx(lam_unit / L**2, rel=1e-8)

    @pytest.mark.parametrize("k_tol", [1e-10, 1e-8, 1e-6, 1e-4])
    def test_stopping_rule_terminates(self, k_tol):
        pairs, trace = solve(unit_problem(), num_modes=2, k_tol=k_tol, max_degree=40)
        assert trace.degrees[-1] <= 40


class TestVariableCoefficients:
    def test_weighted_problem_against_scipy(self):
        # p = 1 + x, q = -x, r = 1 + x^2 on (0, 1), Dirichlet
        iv = (0.0, 1.0)
        prob = SLProblem(poly([1.0, 1.0], iv), poly([0.0, -1.0], iv),
                         poly([1.0, 0.0, 1.0], iv), DIRICHLET)
        pairs, _ = solve(prob, num_modes=3, k_tol=1e-11, max_degree=40)
        A, B = _assemble(prob, 24)
        ref = scipy.linalg.eigh(A, B, eigvals_only=True)
        for m in range(3):
            assert pairs[m].lambda_ == pytest.approx(float(ref[m]), rel=1e-9)
        for pair in pairs:
            assert rayleigh_quotient(prob, pair.u) == pytest.approx(
                pair.lambda_, rel=1e-10)


class TestReduction:
    def test_jacobi_matches_scipy_on_random_pencil(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(12, 12))
        A = 0.5 * (M + M.T)
        N = rng.normal(size=(12, 12))
        B = N @ N.T + 12 * np.eye(12)
        vals, vecs = _generalized_eigh(A, B)
        ref = scipy.linalg.eigh(A, B, eigvals_only=True)
        assert np.allclose(vals, ref, rtol=1e-11, atol=1e-11)
        # B-orthonormality of returned vectors
        G = vecs.T @ B @ vecs
        assert np.allclose(G, np.eye(12), atol=1e-10)

    def test_indefinite_mass_matrix_raises(self):
        A = np.eye(3)
        B = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(ConditioningError):
            _generalized_eigh(A, B)


class TestEigensolveAccuracy:
    # Plain LAPACK eigenvalues of the reduced pencil miss by up to 4e-12 here
    # (absolute error ~ eps * lambda_max); the Rayleigh refinement must bring
    # the low modes back to full relative accuracy.
    @pytest.mark.parametrize("L", [1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("bc,ks", [(DIRICHLET, (1, 2, 3)), (NEUMANN, (0, 1, 2))],
                             ids=["DD", "NN"])
    def test_low_modes_to_full_relative_accuracy(self, bc, ks, L):
        prob = unit_problem(bc, (0.0, L))
        for degree in range(30, 41, 2):
            vals, _ = _generalized_eigh(*_assemble(prob, degree))
            for lam, k in zip(vals, ks):
                exact = (k * math.pi / L) ** 2
                assert abs(lam - exact) <= 1e-13 * (1.0 + exact), (degree, k)


class TestEigenfunctionAccuracy:
    # The stop test watches eigenvalues only; this pins how far the returned
    # eigenfunctions may sit from the degree-40 Ritz eigenfunctions on the
    # variable-coefficient problems of TestWarmStart and TestErrors, under
    # every boundary pair.
    @pytest.mark.parametrize("coeffs", [
        ((0.0, 2.0), [1.0, 0.3, 0.1], [0.5, -0.2], [1.0, 0.25]),
        ((0.0, 5.0), [1.0, 0.1, 0.4], [0.7], [1.0]),
    ], ids=["L2", "L5"])
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_within_1e7_of_degree_40(self, kind, coeffs):
        iv, p, q, r = coeffs
        prob = SLProblem(poly(p, iv), poly(q, iv), poly(r, iv), CONDITIONS[kind])
        pairs, _ = solve(prob, num_modes=4)
        xs = np.linspace(*iv, 401)
        for pair, ref in zip(pairs, solve_at_degree(prob, 40, 4), strict=True):
            exact = ref.u.values(xs)
            assert np.abs(pair.u.values(xs) - exact).max() <= 1e-7 * np.abs(exact).max()


class TestTrialBasis:
    @pytest.mark.parametrize("degree", [2, 3, 8, 21, 40])
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_columns_meet_both_conditions(self, kind, degree):
        bc = CONDITIONS[kind]
        S = _recombination(bc, degree)
        assert S.shape == (degree + 1, degree - 1)
        assert np.linalg.matrix_rank(S) == degree - 1
        for t, condition in ((-1.0, bc.at_a), (1.0, bc.at_b)):
            coeffs = S if condition == "value" else leg.legder(S)
            scale = 1.0 if condition == "value" else degree * (degree + 1) / 2
            assert np.abs(leg.legval(t, coeffs)).max() <= 1e-13 * scale

    def test_no_trial_function_below_degree_two(self):
        with pytest.raises(DomainError):
            solve_at_degree(unit_problem(NEUMANN), 1)


class TestWarmStart:
    @staticmethod
    def _variable_problem(bc):
        iv = (0.0, 2.0)
        return SLProblem(poly([1.0, 0.3, 0.1], iv), poly([0.5, -0.2], iv),
                         poly([1.0, 0.25], iv), bc)

    @staticmethod
    def _assert_same(cold, warm, start):
        (cold_pairs, cold_trace), (warm_pairs, warm_trace) = cold, warm
        for c, w in zip(cold_pairs, warm_pairs, strict=True):
            assert w.lambda_ == c.lambda_
            assert w.u.coeffs == c.u.coeffs
            assert w.degree_used == c.degree_used
        skip = cold_trace.degrees.index(start)
        assert warm_trace.entries == cold_trace.entries[skip:]

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN, BoundaryCondition("value", "derivative")],
                             ids=["DD", "NN", "DN"])
    def test_start_two_below_final_degree_is_bit_identical(self, bc):
        prob = self._variable_problem(bc)
        cold = solve(prob, num_modes=3, k_tol=1e-12)
        final = cold[0][0].degree_used
        assert final >= cold[1].degrees[0] + 4
        self._assert_same(cold, solve(prob, num_modes=3, k_tol=1e-12,
                                      start_degree=final - 2), final - 2)

    def test_wrong_parity_start_rounds_down(self):
        # Every boundary pair visits even degrees; an odd start joins the ladder
        # one below.
        prob = self._variable_problem(DIRICHLET)
        cold = solve(prob, num_modes=2, k_tol=1e-12)
        final = cold[0][0].degree_used
        warm = solve(prob, num_modes=2, k_tol=1e-12, start_degree=final - 1)
        self._assert_same(cold, warm, final - 2)

    @pytest.mark.parametrize("start", [-7, 0, 1])
    def test_start_below_lowest_degree_is_cold(self, start):
        prob = self._variable_problem(DIRICHLET)
        cold = solve(prob, num_modes=2, k_tol=1e-12)
        warm = solve(prob, num_modes=2, k_tol=1e-12, start_degree=start)
        self._assert_same(cold, warm, 2)
        assert warm[1].degrees[0] == 2


class TestErrors:
    # A loose eigenvalue tolerance with a low degree cap: three Neumann modes
    # converge in eigenvalue at degree 10, where a trial space that leaves the
    # derivative conditions to the limit misses them by about 1e-5.
    GATED = dict(num_modes=3, k_tol=1e-4, max_degree=12)

    def test_derivative_conditions_hold_at_every_stop(self):
        mixed = SLProblem(poly([1.0, 0.1, 0.4], (0.0, 5.0)), poly([0.7], (0.0, 5.0)),
                          poly([1.0], (0.0, 5.0)), BoundaryCondition("value", "derivative"))
        for prob, kwargs in ((TestWarmStart._variable_problem(NEUMANN), self.GATED),
                             (mixed, dict(num_modes=2, k_tol=1e-4, max_degree=19))):
            pairs, _ = solve(prob, **kwargs)
            assert len(pairs) == kwargs["num_modes"]
            for pair in pairs:
                assert max(boundary_residuals(prob, pair.u)) <= 1e-12

    def test_nonconvergence_carries_trace(self):
        with pytest.raises(NonConvergenceError, match="eigenvalues not converged") as exc:
            solve(unit_problem(), num_modes=1, k_tol=1e-30, max_degree=10)
        assert exc.value.trace is not None
        assert exc.value.trace.degrees[0] == 2

    def test_max_degree_cap_enforced(self):
        with pytest.raises(PreconditionError):
            solve(unit_problem(), num_modes=1, k_tol=1e-10, max_degree=80)

    def test_bad_num_modes(self):
        with pytest.raises(DomainError):
            solve(unit_problem(), num_modes=0)
