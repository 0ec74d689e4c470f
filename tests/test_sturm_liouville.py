"""Eigensolver tests against analytic spectra and an independent reduction."""

import math
import re
import warnings

import numpy as np
import numpy.polynomial.legendre as leg
import pytest
import scipy.linalg

from conftest import NEUMANN, boundary_residuals, count_assemblies, rayleigh_quotient
from eigenforge import polynomials, sturm_liouville
from eigenforge.errors import ConditioningError, DomainError, NonConvergenceError
from eigenforge.polynomials import (
    LegendreSeries,
    Polynomial,
    integrate_product,
    poly,
)
from eigenforge.sturm_liouville import (
    DIRICHLET,
    BoundaryCondition,
    SLProblem,
    _assemble,
    _build_pairs,
    _reduce,
    _reference_sequence,
    max_modes,
    solve,
)

PI2 = math.pi * math.pi


def lowest_pairs(prob, ritz, degree, count=None):
    """The ``count`` lowest of the Ritz pairs ``ritz`` that ``leading_eigh``
    returns for the given degree, as ``solve`` builds them (all by default)."""
    theta, Y, norms = ritz
    return _build_pairs(prob, theta[:count].tolist(), Y[:, :count], norms[:count], degree)


def solve_at_degree(prob, degree, num_modes=None):
    """Ritz eigenpairs of the fixed-degree trial space, ascending by eigenvalue:
    a fresh assembly and reduction, apart from solve's escalation and memo."""
    return lowest_pairs(prob, _reduce(*_assemble(prob, degree))(degree - 1), degree, num_modes)


def residual(prob, pair):
    """Strong-form defect max |-(p u')' - q u - lam r u| / (1 + |lam|) at 101
    evenly spaced points: an independent check of a returned pair."""
    lo, hi = prob.interval
    xs = np.linspace(lo, hi, 101)
    u = pair.u
    du = u.derivative()
    flux = (prob.p.derivative().values(xs) * du.values(xs)
            + prob.p.values(xs) * du.derivative().values(xs))
    defect = flux + (prob.q.values(xs) + pair.lambda_ * prob.r.values(xs)) * u.values(xs)
    return float(np.abs(defect).max()) / (1.0 + abs(pair.lambda_))


def unit_problem(bc=DIRICHLET, interval=(0.0, 1.0)):
    one = poly([1.0], interval)
    zero = poly([0.0], interval)
    return SLProblem(one, zero, one, bc)


def variable_problem(bc):
    iv = (0.0, 2.0)
    return SLProblem(poly([1.0, 0.3, 0.1], iv), poly([0.5, -0.2], iv),
                     poly([1.0, 0.25], iv), bc)


CONDITIONS = {"DD": DIRICHLET, "NN": NEUMANN,
              "DN": BoundaryCondition("value", "derivative"),
              "ND": BoundaryCondition("derivative", "value")}


def basis(bc, degree):
    """The trial basis of degree <= ``degree``: the leading block of the kept
    table that solve reads."""
    return sturm_liouville._shen_recombination(bc)[0][:degree + 1, :degree - 1]


class TestProblemValidation:
    def test_intervals_must_match(self):
        with pytest.raises(DomainError):
            SLProblem(poly([1.0], (0, 1)), poly([0.0], (0, 2)), poly([1.0], (0, 1)), DIRICHLET)

    def test_p_must_be_positive(self):
        # x - 0.5 changes sign on (0, 1)
        with pytest.raises(DomainError):
            SLProblem(poly([-0.5, 1.0], (0, 1)), poly([0.0], (0, 1)), poly([1.0], (0, 1)), DIRICHLET)

    def test_r_must_be_positive(self):
        # The margin is relative, so a weight of tiny scale that reaches 0
        # (at x = 1 here) is refused as one of unit scale is.
        for r in ([0.0], [1e-13, -1e-13]):
            with pytest.raises(DomainError):
                SLProblem(poly([1.0], (0, 1)), poly([0.0], (0, 1)), poly(r, (0, 1)), DIRICHLET)

    def test_monomial_above_the_degree_cap_refused(self):
        # Built in code, so no parser's degree cap reads it: the conversion to
        # a Legendre series refuses it, before that form overflows with numpy
        # warnings (errors under this suite's filter) and a LinAlgError. The
        # cap's own degree is accepted.
        with pytest.raises(DomainError, match="degree 1000 is above the cap 64"):
            SLProblem(poly([1.0] + [0.0] * 999 + [1.0]), poly([0.0]), poly([1.0]), DIRICHLET)
        SLProblem(poly([1.0] + [0.0] * 63 + [1.0]), poly([0.0]), poly([1.0]), DIRICHLET)

    @pytest.mark.parametrize("scale,L", [(1.0, 1.0), (1e-13, 1.0), (1.0, 1e-3), (1e-13, 1e-3)])
    def test_weight_dipping_between_samples_refused(self, scale, L):
        # (x - 0.3001 L)^2 - 1e-8 L^2 is negative only on a stretch 2e-4 L
        # wide, which a sampling of a few hundred points can miss; its
        # minimum sits where r' vanishes, which the rule reads.
        c, d = 0.3001 * L, 1e-8 * L * L
        r = poly([scale * (c * c - d), -2.0 * scale * c, scale], (0.0, L))
        with pytest.raises(DomainError, match="r must be positive"):
            SLProblem(poly([1.0], (0.0, L)), poly([0.0], (0.0, L)), r, DIRICHLET)

    @pytest.mark.parametrize("scale", [1e-13, 1e-300])
    def test_positivity_is_free_of_scale(self, scale):
        # p = r = scale has lambda_1 = pi^2 whatever the scale: the margin is
        # relative to the largest |f| at the samples, not absolute.
        iv = (0.0, 1.0)
        prob = SLProblem(poly([scale], iv), poly([0.0], iv), poly([scale], iv), DIRICHLET)
        pairs, _ = solve(prob, num_modes=1, k_tol=1e-12)
        assert abs(pairs[0].lambda_ - PI2) <= 1e-12 * PI2

    def test_bad_bc_label(self):
        with pytest.raises(DomainError):
            BoundaryCondition("value", "robin")
        with pytest.raises(DomainError, match=re.escape(
                "bc at b must be 'value' or 'derivative', got 'neumann'")):
            BoundaryCondition("value", "neumann")

    def test_coefficients_on_different_intervals_refused(self):
        with pytest.raises(DomainError, match="^p, q, r must share one interval$"):
            SLProblem(poly([1.0]), poly([0.0], (0.0, 2.0)), poly([1.0]), DIRICHLET)

    @pytest.mark.parametrize("name", ["p", "r"])
    def test_overflowing_values_refused_as_not_finite(self, name):
        # 1e308 (1 + x) overflows at x = 1: refused by name as not finite,
        # with no numpy warning (the suite turns warnings into errors).
        iv = (0.0, 1.0)
        coeffs = {"p": [1.0], "q": [0.0], "r": [1.0], name: [1e308, 1e308]}
        for _ in range(2):  # the verdict is kept; the refusal is the same
            with pytest.raises(DomainError, match=rf"^{name} is not finite on \[0.0, 1.0\]$"):
                SLProblem(*(poly(coeffs[k], iv) for k in "pqr"), DIRICHLET)


class TestRayleighQuotient:
    def test_bubble_is_exactly_ten(self):
        # x (L - x) gives 10 / L^2 on every scale: its weighted norm L^5 / 30
        # is 3.3e-17 on the short interval, yet the quotient is exact. The
        # bound is 1e-12 absolute at L = 1.
        for L in (1.0, 1e-3):
            prob = unit_problem(interval=(0.0, L))
            u = poly([0.0, L, -1.0], (0.0, L))
            assert rayleigh_quotient(prob, u) == pytest.approx(10.0 / L**2, rel=1e-13)

    def test_matches_solver_eigenvalue(self):
        prob = unit_problem()
        pairs, _ = solve(prob, num_modes=1, k_tol=1e-10, max_degree=30)
        lam = pairs[0].lambda_
        assert rayleigh_quotient(prob, pairs[0].u) == pytest.approx(lam, rel=1e-10)

    def test_neumann_constant_gives_zero(self):
        prob = unit_problem(NEUMANN)
        assert rayleigh_quotient(prob, poly([1.0], (0.0, 1.0))) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("L", [1e-9, 1e-6, 1e3])
    @pytest.mark.parametrize("name", sorted(CONDITIONS))
    def test_solver_modes_accepted_on_every_scale(self, name, L):
        # End residuals are compared with 1e-9 times a bound on the sup of u
        # or u', not with 1e-9 absolute: on [0, 1e-9] the Neumann modes'
        # |u'(L)| reads up to 0.31 while their u' reaches 4e14.
        prob = unit_problem(CONDITIONS[name], (0.0, L))
        pairs, _ = solve(prob, num_modes=4, k_tol=1e-10)
        for pair in pairs:
            gap = abs(rayleigh_quotient(prob, pair.u) - pair.lambda_)
            assert gap <= 1e-12 * (math.pi / L) ** 2


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
        lams = [lam for _, lam in trace.entries]
        for prev, cur in zip(lams[:-1], lams[1:]):
            assert cur <= prev + 1e-12 * (1.0 + abs(prev))

    def test_eigenfunction_matches_sine(self):
        prob = unit_problem()
        pairs, _ = solve(prob, num_modes=1, k_tol=1e-10, max_degree=40)
        xs = np.linspace(0.0, 1.0, 101)
        exact = math.sqrt(2.0) * np.sin(math.pi * xs)
        assert float(np.abs(pairs[0].u.values(xs) - exact).max()) < 1e-8

    def test_normalization_and_sign(self):
        # The sign makes positive what the condition at a leaves free: u'(a)
        # under a value condition, u(a) under a derivative condition. On
        # (1, 3) that is not the sign of the monomial extrapolation to x = 0.
        for bc in CONDITIONS.values():
            for interval in ((0.0, 1.0), (1.0, 3.0)):
                prob = unit_problem(bc, interval)
                pairs, _ = solve(prob, num_modes=3, k_tol=1e-10, max_degree=40)
                for pair in pairs:
                    nrm = integrate_product(prob.r, pair.u, pair.u)
                    assert abs(nrm - 1.0) <= 1e-13
                    lo = interval[0]
                    free = pair.u if bc.at_a == "derivative" else pair.u.derivative()
                    lead = float(free.values(lo))
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


class TestIntervalsOffZero:
    # The affine map of t = -1 and 1 rounds one end of each of these
    # intervals to a point just outside it.
    INTERVALS = [(-2.0, -1.8), (1.0, 3.1), (3.82420082752499, 5.6689653938836235)]

    @pytest.mark.parametrize("interval", INTERVALS)
    def test_dirichlet_ground_mode(self, interval):
        lo, hi = interval
        pairs, _ = solve(unit_problem(DIRICHLET, interval), num_modes=1, k_tol=1e-12)
        exact = (math.pi / (hi - lo)) ** 2
        assert abs(pairs[0].lambda_ - exact) <= 1e-12 * exact


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


class TestAssembly:
    def test_entries_are_the_integrals(self):
        # B_ij = int r phi_i phi_j and the q-part of A, int q phi_i phi_j, with
        # a monomial r and a degree-30 Legendre q read at the nodes as series.
        # The q-part is A at q = 0 minus A; a small p keeps the p-part from
        # cancelling in that difference.
        iv, degree = (0.0, 2.0), 12
        rng = np.random.default_rng(3)
        p, r = poly([1e-6], iv), poly([1.0, 0.25], iv)
        q = LegendreSeries(tuple(rng.normal(size=31)), iv)
        A, B = _assemble(SLProblem(p, q, r, DIRICHLET), degree)
        A0, _ = _assemble(SLProblem(p, LegendreSeries((0.0,), iv), r, DIRICHLET), degree)
        S = basis(DIRICHLET, degree)
        phi = [LegendreSeries(tuple(S[:, i]), iv) for i in range(degree - 1)]
        for got, f in ((B, r), (A0 - A, q)):
            want = np.array([[integrate_product(f, a, b) for b in phi] for a in phi])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(B).max()


class TestReduction:
    def test_matches_scipy_on_random_pencil(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(12, 12))
        A = 0.5 * (M + M.T)
        N = rng.normal(size=(12, 12))
        B = N @ N.T + 12 * np.eye(12)
        vals, vecs, _ = _reduce(A, B)(12)
        ref = scipy.linalg.eigh(A, B, eigvals_only=True)
        assert np.allclose(vals, ref, rtol=1e-11, atol=1e-11)
        # B-orthonormality of returned vectors
        G = vecs.T @ B @ vecs
        assert np.allclose(G, np.eye(12), atol=1e-10)

    def test_indefinite_mass_matrix_raises(self):
        A = np.eye(3)
        B = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(ConditioningError) as exc:
            _reduce(A, B)
        assert exc.value.cause == "cholesky"

    def test_nan_pencil_refused_by_size(self):
        # Not finite: refused by block size before LAPACK sees it.
        with pytest.raises(ConditioningError, match="reduced eigenproblem of size 3") as exc:
            _reduce(np.full((3, 3), np.nan), np.eye(3))(3)
        assert exc.value.cause == "overflow"

    def test_non_finite_mass_matrix_refused(self):
        # Refused before its Cholesky factorization is tried.
        for bad in (np.inf, np.nan):
            B = np.eye(3)
            B[2, 2] = bad
            with pytest.raises(ConditioningError, match="mass matrix is not finite") as exc:
                _reduce(np.eye(3), B)
            assert exc.value.cause == "overflow"

    def test_failed_eigensolve_raises(self, monkeypatch):
        # LAPACK converges on every finite symmetric block this library
        # builds, so its failure is simulated.
        def no_convergence(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ConditioningError) as exc:
            _reduce(np.eye(3), np.eye(3))(3)
        assert str(exc.value) == "reduced eigenproblem of size 3: Eigenvalues did not converge"
        assert exc.value.cause == "eigh"

    # leading_eigh is the one owner of the order: LAPACK's vectors, patched
    # here to the identity so that its order is not ascending, come back with
    # theta ascending, each column of Y the vector of its own value, and tied
    # values in LAPACK's order.
    @pytest.mark.parametrize("diagonal,modes", [([3.0, 1.0, 2.0], [1, 2, 0]),
                                                ([2.0, 1.0, 2.0], [1, 0, 2])],
                             ids=["distinct", "tied"])
    def test_unsorted_ritz_values_ascend(self, monkeypatch, diagonal, modes):
        monkeypatch.setattr(np.linalg, "eigh", lambda C: (np.diag(C), np.eye(len(C))))
        theta, Y, norms = _reduce(np.diag(diagonal), np.eye(3))(3)
        assert theta.tolist() == [diagonal[j] for j in modes]
        assert Y.tolist() == np.eye(3)[:, modes].tolist()
        assert norms.tolist() == [1.0, 1.0, 1.0]
        for value, vector in zip(theta, Y.T, strict=True):
            assert (np.diag(diagonal) @ vector).tolist() == (value * vector).tolist()

    def test_overflowing_pencil_is_conditioning_error(self):
        # On [0, 1e-300] the reduction overflows and C[0, 0] is NaN: a
        # numerical failure, not invalid input, refused by block size with no
        # numpy warning (the suite turns warnings into errors).
        with pytest.raises(ConditioningError, match="reduced eigenproblem of size 1") as exc:
            solve(unit_problem(DIRICHLET, (0.0, 1e-300)))
        assert exc.value.cause == "overflow"

    def test_subnormal_interval_is_one_conditioning_error(self):
        # On [0, 1e-320] the derivative's scale 2 / (b - a) overflows, so the
        # stiffness matrix of a variable p holds NaN: formed with numpy's
        # warnings off, and the pencil refused by its underflowing mass matrix.
        iv = (0.0, 1e-320)
        prob = SLProblem(Polynomial((1.0, 1.0), iv), Polynomial((0.0,), iv),
                         Polynomial((1.0,), iv), DIRICHLET)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError, match="mass matrix is numerically indefinite"):
                solve(prob)


class TestOverflowingAssembly:
    # Coefficients near the float range overflow the assembled pencil of
    # p = 1 + x: one ConditioningError of cause "overflow", with no numpy
    # warning, whichever matrix overflows.
    @pytest.mark.parametrize("q,r,message", [
        (1e308, 1.0, "reduced eigenproblem of size 1 is not finite"),
        (1e308, 1e-10, "reduced eigenproblem of size 1 is not finite"),
        (-1e308, 1.0, "reduced eigenproblem of size 1 is not finite"),
        (0.0, 1e308, "mass matrix is not finite"),
    ], ids=["q-high", "q-high-r-low", "q-low", "r-high"])
    def test_one_overflow_error(self, q, r, message):
        iv = (0.0, 1.0)
        prob = SLProblem(poly([1.0, 1.0], iv), poly([q], iv), poly([r], iv), DIRICHLET)
        with pytest.raises(ConditioningError, match=message) as exc:
            solve(prob)
        assert exc.value.cause == "overflow"


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
            vals, _, _ = _reduce(*_assemble(prob, degree))(degree - 1)
            for lam, k in zip(vals, ks):
                exact = (k * math.pi / L) ** 2
                assert abs(lam - exact) <= 1e-13 * (1.0 + exact), (degree, k)


class TestEigenfunctionAccuracy:
    # The stop test watches eigenvalues only; this pins how far the returned
    # eigenfunctions may sit from the degree-40 Ritz eigenfunctions on the
    # variable-coefficient problems of variable_problem and TestErrors, under
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
        S = basis(bc, degree)
        assert S.shape == (degree + 1, degree - 1)
        assert np.linalg.matrix_rank(S) == degree - 1
        for t, condition in ((-1.0, bc.at_a), (1.0, bc.at_b)):
            coeffs = S if condition == "value" else leg.legder(S)
            scale = 1.0 if condition == "value" else degree * (degree + 1) / 2
            assert np.abs(leg.legval(t, coeffs)).max() <= 1e-13 * scale

    def test_no_trial_function_below_degree_two(self):
        # Degree n holds n - 1 trial functions: the escalation starts at 2, and
        # a degree cap below 2 is refused like every cap too low to stop on.
        prob = unit_problem(NEUMANN)
        for max_degree in (0, 1):
            with pytest.raises(DomainError, match="1 modes need max_degree >= 4"):
                solve(prob, max_degree=max_degree)
        assert basis(NEUMANN, 2).shape == (3, 1)
        assert solve(prob, k_tol=1e300, max_degree=4)[1].degrees == (2, 4)


class TestPairBuilding:
    # Pairs are scaled by the Rayleigh denominators y^T B y and signed by the
    # endpoint row at a that the condition leaves free, in one array pass;
    # these tests hold them to a per-mode reference: the norm by exact
    # integration, the sign by evaluating u (derivative condition at a) or u'
    # (value condition at a) at a.
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_matches_normalized_ritz_vectors(self, kind):
        prob = variable_problem(CONDITIONS[kind])
        pairs, _ = solve(prob, num_modes=4, k_tol=1e-12)
        degree = pairs[0].degree_used
        theta, Y, _ = _reduce(*_assemble(prob, 40))(degree - 1)
        S = basis(prob.bc, degree)
        for m, pair in enumerate(pairs):
            u = LegendreSeries(tuple(S @ Y[:, m]), prob.interval)
            u = u * (1.0 / math.sqrt(integrate_product(prob.r, u, u)))
            free = u if prob.bc.at_a == "derivative" else u.derivative()
            if float(free.values(prob.interval[0])) < 0:
                u = -u
            ref = np.array(u.coeffs)
            got = np.array(pair.u.coeffs)
            assert pair.lambda_ == theta[m]
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), m
            assert np.dot(got, ref) > 0

    # _build_pairs pairs each given eigenvalue with its own column, in the
    # order given, scaled by its B-norm and signed by the rule.
    def test_scales_and_signs_each_column(self):
        prob = unit_problem(DIRICHLET)
        lams = [1.0, 2.0, 3.0]
        Y = np.random.default_rng(5).normal(size=(3, 3))
        norms = np.array([4.0, 1.0, 9.0])
        S = basis(DIRICHLET, 4)
        for count in (1, 2, 3):
            pairs = _build_pairs(prob, lams[:count], Y[:, :count], norms[:count], 4)
            assert [pair.lambda_ for pair in pairs] == lams[:count]
            for j, pair in enumerate(pairs):
                ref = S @ Y[:, j] / math.sqrt(norms[j])
                if leg.legval(-1.0, leg.legder(ref)) < 0:  # u'(a) > 0 under a value condition
                    ref = -ref
                got = np.array(pair.u.coeffs)
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max(), j


def reference_recombination(bc, degree):
    """The basis of one degree by its own 2x2 solves on endpoint rows of that
    degree, as it was built before the per-pair table."""
    j = np.arange(degree + 1.0)
    rows = np.array([sign ** j if kind == "value" else sign ** (j + 1) * j * (j + 1) / 2
                     for kind, sign in ((bc.at_a, -1.0), (bc.at_b, 1.0))])
    S = np.zeros((degree + 1, degree - 1))
    for k in range(degree - 1):
        S[k, k] = 1.0
        S[k + 1:k + 3, k] = np.linalg.solve(rows[:, k + 1:k + 3], -rows[:, k])
    return S


def reference_assemble(prob, degree):
    """_assemble with the basis and its derivative computed afresh from the
    per-degree reference, with nothing cached."""
    lo, hi = prob.interval
    n_nodes = (max(prob.p.degree, prob.q.degree, prob.r.degree) + 2 * degree) // 2 + 1
    w = 0.5 * (hi - lo) * polynomials._gauss_legendre(n_nodes)[1]
    pv, qv, rv = polynomials.node_values(n_nodes, prob.p, prob.q, prob.r)
    S = reference_recombination(prob.bc, degree)
    table = polynomials._legendre_table(n_nodes, degree + 1)
    phi = (table @ S).T
    dphi = (table @ polynomials._legendre_derivative(degree + 1) @ S).T * (2.0 / (hi - lo))
    A = (dphi * (w * pv)) @ dphi.T - (phi * (w * qv)) @ phi.T
    B = (phi * (w * rv)) @ phi.T
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


class TestKeptTables:
    # The recombination is built once per boundary pair at the degree cap, with
    # the endpoint row the sign rule reads, and the basis at the quadrature
    # nodes is read off it and the kept node table; both must give the bits of
    # a per-degree build.
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_leading_blocks_equal_per_degree_solves(self, kind):
        bc = CONDITIONS[kind]
        table, sign_row = sturm_liouville._shen_recombination(bc)
        assert table.shape == (polynomials.MAX_DEGREE + 1, polynomials.MAX_DEGREE - 1)
        for degree in range(2, polynomials.MAX_DEGREE + 1):
            ref = reference_recombination(bc, degree).tobytes()
            assert basis(bc, degree).tobytes() == ref, degree
        # P_j'(-1) under a value condition at a, P_j(-1) under a derivative one.
        j = np.arange(polynomials.MAX_DEGREE + 1.0)
        free = (-1.0) ** (j + 1) * j * (j + 1) / 2 if bc.at_a == "value" else (-1.0) ** j
        assert sign_row.tobytes() == free.tobytes()

    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_assembly_bits_cold_and_warm(self, kind):
        for prob in (variable_problem(CONDITIONS[kind]), unit_problem(CONDITIONS[kind])):
            for degree in (2, 17, 40, 64):
                for cache in (sturm_liouville._shen_recombination,
                              polynomials._legendre_table):
                    cache.cache_clear()
                cold, warm = _assemble(prob, degree), _assemble(prob, degree)
                for got in (cold, warm):
                    for M, ref in zip(got, reference_assemble(prob, degree), strict=True):
                        assert M.tobytes() == ref.tobytes(), degree


class TestLeadingBlocks:
    # The trial basis is hierarchical, so solve assembles and reduces the pencil
    # once, at its degree cap, and reads each visited degree off a leading block.
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_each_degree_is_a_leading_block(self, kind):
        prob = variable_problem(CONDITIONS[kind])
        A40, B40 = _assemble(prob, 40)
        for n in range(2, 39):
            for M, M40 in zip(_assemble(prob, n), (A40, B40), strict=True):
                assert M.shape == (n - 1, n - 1)
                assert np.abs(M - M40[:n - 1, :n - 1]).max() <= 1e-13 * np.abs(M40).max()

    def test_one_assembly_per_solve(self, monkeypatch):
        calls = count_assemblies(monkeypatch)
        prob = variable_problem(DIRICHLET)
        _, trace = solve(prob, num_modes=3, k_tol=1e-12)
        assert calls == [40] and len(trace.entries) > 2

    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_trace_matches_scipy_at_every_degree(self, kind):
        prob = variable_problem(CONDITIONS[kind])
        _, trace = solve(prob, num_modes=3, k_tol=1e-12)
        for n, lam in trace.entries:
            ref = scipy.linalg.eigh(*_assemble(prob, n), eigvals_only=True)[0]
            assert abs(lam - ref) <= 1e-13 * (1.0 + abs(lam)), n


class TestMemo:
    # What solve keeps across problems (the recombination, the reference
    # pencil, the positivity verdicts) is shared read-only
    # (tests/test_memo_table.py), a failure is never kept, and what solve
    # returns must not depend on whether it was kept.
    # (num_modes, max_degree) requests; the pencil of a lower degree cap is
    # assembled with fewer nodes, so it reads another table of P_k at the nodes.
    REQUESTS = ((1, 40), (4, 40), (2, 24))

    @pytest.mark.parametrize("reverse", [False, True], ids=["fewer-first", "more-first"])
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_warm_results_equal_cold(self, kind, reverse):
        # A variable-coefficient problem reads the kept recombination with its
        # sign row, and assembles its own pencil.
        prob = variable_problem(CONDITIONS[kind])
        order = self.REQUESTS[::-1] if reverse else self.REQUESTS
        cold = {}
        for num_modes, max_degree in order:
            sturm_liouville._shen_recombination.cache_clear()
            cold[num_modes] = solve(prob, num_modes=num_modes, k_tol=1e-12, max_degree=max_degree)
        for num_modes, max_degree in order:
            pairs, trace = solve(prob, num_modes=num_modes, k_tol=1e-12, max_degree=max_degree)
            ref_pairs, ref_trace = cold[num_modes]
            assert trace == ref_trace
            for pair, ref in zip(pairs, ref_pairs, strict=True):
                assert pair.lambda_ == ref.lambda_ and pair.degree_used == ref.degree_used
                assert pair.u.coeffs == ref.u.coeffs

    def test_conditioning_error_raised_on_every_repeat(self, monkeypatch):
        # p = 1 + x: a variable-coefficient problem, whose pencil is its own
        # and assembled afresh by each solve.
        calls = count_assemblies(monkeypatch)
        iv = (0.0, 1e-300)
        prob = SLProblem(poly([1.0, 1.0], iv), poly([0.0], iv), poly([1.0], iv), DIRICHLET)
        for _ in range(2):
            with pytest.raises(ConditioningError, match="reduced eigenproblem of size 1") as exc:
                solve(prob)
            assert exc.value.cause == "overflow"
        assert calls == [40, 40]

    def test_positivity_verdict_kept(self, monkeypatch):
        # Each SLProblem rebuilt on the same weight reuses that weight's
        # verdict; the refusal message is unchanged.
        r = poly([1.0, 0.5, 0.25], (0.0, 1.0))
        sturm_liouville._is_positive.cache_clear()
        for _ in range(3):
            SLProblem(r, poly([0.0], (0.0, 1.0)), r, DIRICHLET)
        info = sturm_liouville._is_positive.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        bad = poly([-0.5, 1.0], (0.0, 1.0))
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^p must be positive on \[0.0, 1.0\]$"):
                SLProblem(bad, bad, r, DIRICHLET)


def constant_problem(bc, interval, p, q, r):
    return SLProblem(poly([p], interval), poly([q], interval), poly([r], interval), bc)


class TestReferencePencil:
    # A problem with constant p, q and r reads the Ritz pairs of one kept
    # reference pencil per (boundary pair, top degree), mapped affinely; it
    # never assembles or reduces a pencil of its own.
    # (interval, p, q, r): q != 0, p != r and intervals off zero.
    PROBLEMS = [((1.0, 3.1), 0.7, 0.4, 1.9), ((-2.0, -1.8), 2.5, -3.0, 0.5),
                ((3.82420082752499, 5.6689653938836235), 1.3, 2.0, 0.8)]

    def test_no_per_problem_assembly(self, monkeypatch):
        _reference_sequence.cache_clear()
        calls = count_assemblies(monkeypatch)
        for coeffs in self.PROBLEMS:
            for num_modes in (1, 4):
                solve(constant_problem(DIRICHLET, *coeffs), num_modes=num_modes)
        solve(unit_problem(DIRICHLET, (0.0, 1e3)), num_modes=2)
        assert calls == [40]  # the reference's, once
        assert _reference_sequence.cache_info().currsize == 1

    def test_conditioning_error_raised_on_every_repeat(self, monkeypatch):
        # On [0, 1e-300] the map's scale 1 / h^2 overflows: the error today's
        # overflowing reduction raises, on every repeat, with no assembly.
        _reference_sequence(DIRICHLET, 40)
        calls = count_assemblies(monkeypatch)
        prob = unit_problem(DIRICHLET, (0.0, 1e-300))
        for _ in range(2):
            with pytest.raises(ConditioningError, match="reduced eigenproblem of size 1"):
                solve(prob)
        assert calls == []

    def test_underflowing_mass_matrix_refused(self):
        # r h = 1e-300 * 5e-31 underflows to 0: a zero mass matrix, refused
        # as the failed Cholesky factorization of an assembled one is.
        prob = constant_problem(DIRICHLET, (0.0, 1e-30), 1.0, 0.0, 1e-300)
        with pytest.raises(ConditioningError, match="mass matrix is numerically indefinite") as exc:
            solve(prob)
        assert exc.value.cause == "cholesky"

    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_warm_results_equal_cold(self, kind):
        probs = [constant_problem(CONDITIONS[kind], *coeffs) for coeffs in self.PROBLEMS]
        requests = [(prob, num_modes, max_degree) for prob in probs
                    for num_modes, max_degree in TestMemo.REQUESTS]
        cold = []
        for prob, num_modes, max_degree in requests:
            _reference_sequence.cache_clear()
            cold.append(solve(prob, num_modes=num_modes, k_tol=1e-12, max_degree=max_degree))
        _reference_sequence.cache_clear()
        for (prob, num_modes, max_degree), (ref_pairs, ref_trace) in zip(requests, cold):
            pairs, trace = solve(prob, num_modes=num_modes, k_tol=1e-12, max_degree=max_degree)
            assert trace == ref_trace
            for pair, ref in zip(pairs, ref_pairs, strict=True):
                assert pair.lambda_ == ref.lambda_ and pair.degree_used == ref.degree_used
                assert pair.u.coeffs == ref.u.coeffs

    @pytest.mark.parametrize("coeffs", PROBLEMS, ids=["right-of-zero", "left-of-zero", "rounded-ends"])
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_matches_a_direct_solve(self, kind, coeffs):
        # Against the problem's own pencil, assembled and reduced in the test,
        # at the degree the solve stopped at: eigenvalues to TestEigensolveAccuracy's
        # bound, eigenfunctions to 1e-12 of their largest value.
        prob = constant_problem(CONDITIONS[kind], *coeffs)
        pairs, trace = solve(prob, num_modes=4)
        degree = pairs[0].degree_used
        direct = lowest_pairs(prob, _reduce(*_assemble(prob, 40))(degree - 1), degree, 4)
        xs = np.linspace(*prob.interval, 401)
        assert trace.entries[-1] == (degree, pairs[0].lambda_)
        for pair, ref in zip(pairs, direct, strict=True):
            assert abs(pair.lambda_ - ref.lambda_) <= 1e-13 * (1.0 + abs(ref.lambda_))
            exact = ref.u.values(xs)
            assert np.abs(pair.u.values(xs) - exact).max() <= 1e-12 * np.abs(exact).max()


def bits(values):
    return np.array(values, dtype=float).tobytes()


class TestIdentityMap:
    # A variable-coefficient problem reads its own pencil through the identity
    # map (scale 1, shift 0, weight 1), which must keep every bit of a direct
    # read: the pairs of a fresh reduction at the degree the solve returned,
    # and at each visited degree the lowest of its Ritz values.
    @pytest.mark.parametrize("max_degree", [24, 40])
    @pytest.mark.parametrize("num_modes", [1, 4])
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_pairs_and_trace_keep_their_bits(self, kind, num_modes, max_degree):
        prob = variable_problem(CONDITIONS[kind])
        pairs, trace = solve(prob, num_modes=num_modes, max_degree=max_degree)
        degree = pairs[0].degree_used
        leading_eigh = _reduce(*_assemble(prob, max_degree))
        direct = lowest_pairs(prob, leading_eigh(degree - 1), degree, num_modes)
        assert len(pairs) == len(direct) == num_modes
        for pair, ref in zip(pairs, direct):
            assert pair.degree_used == ref.degree_used
            assert bits(pair.lambda_) == bits(ref.lambda_)
            assert bits(pair.u.coeffs) == bits(ref.u.coeffs)
        assert trace.degrees == tuple(range(2, degree + 1, 2))
        for n, lam in trace.entries:
            assert bits(lam) == bits(leading_eigh(n - 1)[0][0]), n


class TestStopFloor:
    # A drop of at most 4 ulps of the previous eigenvalue counts as no drop:
    # at extreme scales an absolute k_tol sits below the rounding jitter of
    # converged Ritz values. With k_tol = 1e-300 only that floor can stop a
    # solve, and it stops each problem at one degree whatever its scale; with
    # the absolute test alone some of these ran to the degree cap.
    @pytest.mark.parametrize("linear", [False, True], ids=["constant-p", "linear-p"])
    @pytest.mark.parametrize("kind", list(CONDITIONS))
    def test_converges_at_one_degree_on_every_scale(self, kind, linear):
        degrees = set()
        for L in (1e-9, 1.0, 1e3):
            iv = (0.0, L)
            p = poly([1.0, 1.0 / L] if linear else [1.0], iv)
            prob = SLProblem(p, poly([0.0], iv), poly([1.0], iv), CONDITIONS[kind])
            pairs, _ = solve(prob, num_modes=4, k_tol=1e-300)
            degrees.add(pairs[0].degree_used)
        assert len(degrees) == 1, degrees


class TestErrors:
    # A loose eigenvalue tolerance with a low degree cap: three Neumann modes
    # converge in eigenvalue at degree 10, where a trial space that leaves the
    # derivative conditions to the limit misses them by about 1e-5.
    GATED = dict(num_modes=3, k_tol=1e-4, max_degree=12)

    def test_derivative_conditions_hold_at_every_stop(self):
        mixed = SLProblem(poly([1.0, 0.1, 0.4], (0.0, 5.0)), poly([0.7], (0.0, 5.0)),
                          poly([1.0], (0.0, 5.0)), BoundaryCondition("value", "derivative"))
        for prob, kwargs in ((variable_problem(NEUMANN), self.GATED),
                             (mixed, dict(num_modes=2, k_tol=1e-4, max_degree=19))):
            pairs, _ = solve(prob, **kwargs)
            assert len(pairs) == kwargs["num_modes"]
            for pair in pairs:
                assert max(boundary_residuals(prob, pair.u)) <= 1e-12

    def test_nonconvergence_carries_trace(self):
        with pytest.raises(NonConvergenceError, match="eigenvalues not converged") as exc:
            solve(unit_problem(), num_modes=1, k_tol=1e-30, max_degree=10)
        assert exc.value.cause == "degree_cap"
        assert exc.value.trace is not None
        assert exc.value.trace.degrees[0] == 2

    def test_max_degree_cap_enforced(self):
        with pytest.raises(DomainError):
            solve(unit_problem(), num_modes=1, k_tol=1e-10, max_degree=80)

    def test_bad_num_modes(self):
        with pytest.raises(DomainError):
            solve(unit_problem(), num_modes=0)

    # A count is not converted: 2.0 is not two modes, and True is not one.
    @pytest.mark.parametrize("kwargs,match", [
        ({"num_modes": 2.0}, "num_modes must be an integer"),
        ({"num_modes": True}, "num_modes must be an integer"),
        ({"max_degree": 40.0}, "max_degree must be an integer"),
        ({"max_degree": True}, "max_degree must be an integer"),
        ({"k_tol": 0.0}, "k_tol must be positive"),
        ({"k_tol": math.nan}, "k_tol must be positive"),
    ], ids=["float-modes", "bool-modes", "float-degree", "bool-degree", "zero-tol", "nan-tol"])
    def test_argument_refused_by_name(self, kwargs, match):
        with pytest.raises(DomainError, match=f"^{match}$"):
            solve(unit_problem(), **kwargs)

    def test_max_degree_above_the_cap_refused(self):
        # The one rule on the cap: the kept basis ends at MAX_DEGREE.
        top = polynomials.MAX_DEGREE
        solve(unit_problem(), k_tol=1e300, max_degree=top)  # the cap is accepted
        with pytest.raises(DomainError, match=re.escape(
                f"max_degree {top + 1} exceeds the polynomial degree cap {top}")):
            solve(unit_problem(), max_degree=top + 1)

    # The stop test compares two visited degrees, each holding num_modes of
    # the n - 1 trial functions of degree n: max_modes(max_degree) =
    # max_degree // 2 * 2 - 3 modes at most. Any drop meets a tolerance of
    # 1e300, so a feasible request stops; each case asks for the most.
    @pytest.mark.parametrize("num_modes,max_degree", [(1, 4), (1, 5), (3, 6), (37, 40)])
    def test_feasible_request_converges(self, num_modes, max_degree):
        assert max_modes(max_degree) == num_modes
        pairs, _ = solve(unit_problem(), num_modes=num_modes, k_tol=1e300, max_degree=max_degree)
        assert len(pairs) == num_modes

    @pytest.mark.parametrize("num_modes,max_degree,least", [
        (1, 3, 4), (2, 4, 6), (2, 5, 6), (38, 40, 42), (1, -1, 4),
    ])
    def test_infeasible_request_refused(self, num_modes, max_degree, least):
        with pytest.raises(DomainError, match=f"{num_modes} modes need max_degree >= {least}"):
            solve(unit_problem(), num_modes=num_modes, k_tol=1e300, max_degree=max_degree)
