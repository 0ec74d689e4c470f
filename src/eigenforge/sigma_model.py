"""Separable nonlinear field solver.

A field eigenstate factorizes into one eigenfunction per dimension. Each
space factor is obtained from a one-dimensional eigensolve whose coefficients
are the multi-dimensional ones averaged over every *other* dimension's current
factor (the self-consistent freeze-the-rest reduction); a quadratic
self-coupling enters through fourth-moment averages and the frozen factor's
square, interpolated exactly. The single time dimension is never solved: its
harmonic pair is frequency-free, so its factors are fixed for the whole solve
and no sweep reads the frequency. Once the space factors have converged, the
frequency is set, once, so the effective time eigenvalue matches the summed
effective space eigenvalues, which enforces the eigenvalue-balance (indicial)
constraint. In the linear case omega = sqrt(sum lambda_space).

Each sweep installs the eigenpairs as solved, undamped, and sweeps repeat
until the largest space-factor change drops below tolerance. Factors are
Legendre series, and a factor's change is the sup norm of old minus new at
129 Chebyshev points of its interval: a measure of the function, not of the
coefficients that represent it.
Consecutive sweeps solve nearly the same eigenproblem, so each sweep's
eigensolve starts its degree escalation just below the previous final degree.
A sweep whose problem in a dimension is unchanged does not solve it again:
from that warm start the eigensolve would return the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import action as action_mod
from .errors import DomainError, NonConvergenceError
from .polynomials import (
    Polynomial,
    chebyshev_fit,
    constant,
    differentiate,
    integrate_product,
)
from .sturm_liouville import (
    BoundaryCondition,
    EigenPair,
    SLProblem,
    _chebyshev_points,
    _normalized,
    solve as sl_solve,
)

CHANGE_POINTS = 129
# Default sweep cap of a field solve, shared with ``eigenforge sigma``.
MAX_SWEEPS = 200
# Eigenvalue stopping tolerance and degree cap of each space-factor eigensolve.
SL_K_TOL = 1e-12
SL_MAX_DEGREE = 40


@dataclass(frozen=True)
class DimensionSpec:
    """One coordinate: its interval, weight polynomial, and endpoint conditions."""

    interval: tuple[float, float]
    r: Polynomial
    bc: BoundaryCondition

    def __post_init__(self):
        if self.r.interval != tuple(float(v) for v in self.interval):
            raise DomainError("weight polynomial must live on the dimension's interval")


@dataclass(frozen=True)
class CoeffField:
    """Sum of separable terms plus an optional quadratic self-coupling.

    Each term supplies exactly one polynomial factor per dimension (space
    dimensions first, the time dimension last). ``coupling_g = 0`` makes the
    field specification purely linear.
    """

    terms: tuple[tuple[Polynomial, ...], ...]
    coupling_g: float = 0.0


@dataclass(frozen=True)
class ModeSpec:
    label: str
    targets: tuple[int, ...]


@dataclass(frozen=True)
class SigmaModelSpec:
    space_dims: tuple[DimensionSpec, ...]
    time_dim: DimensionSpec
    P: CoeffField
    Q: CoeffField
    components: int = 2
    modes: tuple[ModeSpec, ...] = ()

    def __post_init__(self):
        if not self.space_dims:
            raise DomainError("need at least one space dimension")
        if self.components < 1:
            raise DomainError("need at least one field component")
        n_dims = len(self.space_dims) + 1
        for name, coeff in (("P", self.P), ("Q", self.Q)):
            for term in coeff.terms:
                if len(term) != n_dims:
                    raise DomainError(
                        f"every {name} term needs one factor per dimension ({n_dims})"
                    )

    @property
    def dimensions(self) -> tuple[DimensionSpec, ...]:
        return self.space_dims + (self.time_dim,)

    @property
    def time_index(self) -> int:
        return len(self.space_dims)


@dataclass(frozen=True)
class SeparableEigenstate:
    """Factors of one mode, while it is solved and once it has converged.

    The harmonic pair construction shares the space factors across the field
    components; component ``ell`` couples to time factor ``ell % 2`` (cos-like,
    sin-like). ``solve_state`` iterates on this type, replacing factors with
    ``dataclasses.replace``; while it iterates, ``space_norms`` is empty, and
    the returned state records there the weighted norm of each space factor,
    so downstream consumers can check normalization without the model spec.
    ``omega`` and the time factors' eigenvalues are placeholders until the
    solve returns; it pins them once, on the converged space factors.
    """

    label: str
    space_factors: tuple[EigenPair, ...]
    time_factors: tuple[EigenPair, ...]
    omega: float
    amplitude: float
    space_norms: tuple[float, ...]
    components: int

    def factor_poly(self, component: int, dim_index: int) -> Polynomial:
        if dim_index < len(self.space_factors):
            return self.space_factors[dim_index].u
        return self.time_factors[component].u

    def lambda_space_sum(self) -> float:
        return sum(p.lambda_ for p in self.space_factors)

    def indicial_residual(self) -> float:
        space = self.components * self.lambda_space_sum()
        time = sum(p.lambda_ for p in self.time_factors)
        return abs(space - time)


@dataclass
class IterationReport:
    iterations: int = 0
    factor_changes: list[float] = field(default_factory=list)
    converged: bool = False


# Within a sweep the components share the space factors, and the time factors
# stay fixed for a whole solve; these caches let each such factor's square,
# averages and moments be computed once per factor rather than once per
# component. Polynomials are immutable values, so they key the caches.
_FACTOR_CACHE = 32


@lru_cache(maxsize=_FACTOR_CACHE)
def _project_square(u: Polynomial) -> Polynomial:
    """u^2 interpolated from u's values at twice u's degree, so exact up to rounding."""
    return chebyshev_fit(lambda xs: u.values(xs) ** 2, 2 * u.degree, u.interval)


@lru_cache(maxsize=_FACTOR_CACHE)
def _weighted_average(f: Polynomial, u: Polynomial, r: Polynomial) -> float:
    """int f u^2 r / int u^2 r."""
    return integrate_product(f, u, u, r) / integrate_product(u, u, r)


@lru_cache(maxsize=_FACTOR_CACHE)
def _moment_ratio(u: Polynomial, r: Polynomial) -> float:
    """int u^4 r / int u^2 r."""
    return integrate_product(u, u, u, u, r) / integrate_product(u, u, r)


def _term_weights(spec: SigmaModelSpec, coeff: CoeffField, state: SeparableEigenstate,
                  dim_index: int, component: int) -> tuple[float, ...]:
    """Scalar weight of each of ``coeff``'s terms on one dimension, then of its coupling.

    A term's weight is the product of its other factors' weighted averages
    over their dimensions' current eigenfunctions (ratios, so unnormalized
    factors are harmless). The coupling, present only for a nonzero
    constant, weighs coupling_g * amplitude^2 times the other dimensions'
    fourth-to-second moment ratios. ``_dimension_factors`` lists the
    polynomials these weights multiply.
    """
    dims = spec.dimensions
    others = [d for d in range(len(dims)) if d != dim_index]
    weights = []
    for term in coeff.terms:
        scale = 1.0
        for d in others:
            scale *= _weighted_average(term[d], state.factor_poly(component, d), dims[d].r)
        weights.append(scale)
    if coeff.coupling_g != 0.0:
        g = coeff.coupling_g * state.amplitude ** 2
        for d in others:
            g *= _moment_ratio(state.factor_poly(component, d), dims[d].r)
        weights.append(g)
    return tuple(weights)


def _dimension_factors(coeff: CoeffField, dim_index: int,
                       u: Polynomial) -> tuple[Polynomial, ...]:
    """Each term's factor on one dimension, then the square of that
    dimension's eigenfunction u if ``coeff`` couples."""
    factors = tuple(term[dim_index] for term in coeff.terms)
    if coeff.coupling_g != 0.0:
        factors += (_project_square(u),)
    return factors


def _weighted_sum(factors: Sequence[Polynomial], weights: Sequence[float],
                  interval: tuple[float, float]) -> Polynomial:
    acc = constant(0.0, interval)
    for f, w in zip(factors, weights, strict=True):
        acc = acc + f * w
    return acc


def effective_coeffs(spec: SigmaModelSpec, state: SeparableEigenstate, dim_index: int,
                     component: int) -> tuple[Polynomial, Polynomial]:
    """Reduce the multi-dimensional coefficient fields onto one dimension.

    For each separable term, the factor on the target dimension stays a
    polynomial and every other factor collapses to its weighted average over
    that dimension's current eigenfunction. The quadratic coupling
    contributes the coupling constant times the other dimensions'
    fourth-to-second moment ratios times the square of the target factor.
    Both are ``_term_weights`` times ``_dimension_factors``.
    """
    interval = spec.dimensions[dim_index].interval
    u = state.factor_poly(component, dim_index)
    return tuple(
        _weighted_sum(_dimension_factors(coeff, dim_index, u),
                      _term_weights(spec, coeff, state, dim_index, component), interval)
        for coeff in (spec.P, spec.Q)
    )


def _pin_time(spec: SigmaModelSpec, state: SeparableEigenstate) -> SeparableEigenstate:
    """The state with the frequency that equates the effective time eigenvalue
    with the summed effective space eigenvalues.

    Per component, the time factor u gives int p_eff u'u', int q_eff u u and
    int r_t u u, with ``effective_coeffs`` on the time dimension. Solving
    (omega^2 * kinetic - potential) / mass = lambda_sum accounts for the time
    dimension's own effective potential, so the space/time balance survives
    a nonzero coupling.
    """
    lam_sum = state.lambda_space_sum()
    t = spec.time_index
    per_component = []
    for ell, factor in enumerate(state.time_factors):
        u, du = factor.u, differentiate(factor.u)
        p_eff, q_eff = effective_coeffs(spec, state, t, ell)
        per_component.append((integrate_product(p_eff, du, du), integrate_product(q_eff, u, u),
                              integrate_product(spec.time_dim.r, u, u)))
    omega_sq = sum((lam_sum * mass + potential) / kinetic
                   for kinetic, potential, mass in per_component) / spec.components
    if not omega_sq > 0:
        raise DomainError(
            f"pinned frequency squared {omega_sq} must be positive; "
            "the space eigenvalue sum is too low"
        )
    time_factors = tuple(
        replace(pair, lambda_=(omega_sq * kinetic - potential) / mass)
        for pair, (kinetic, potential, mass) in zip(state.time_factors, per_component)
    )
    return replace(state, omega=math.sqrt(omega_sq), time_factors=time_factors)


def _sup_change(old: Polynomial, new: Polynomial) -> float:
    xs = _chebyshev_points(*old.interval, CHANGE_POINTS)
    return float(np.abs((old - new).values(xs)).max())


def _space_problem(spec: SigmaModelSpec, state: SeparableEigenstate, d: int) -> SLProblem:
    # Components share the space factors, so their term weights are averaged;
    # for time-independent fields the per-component weights agree.
    dim = spec.dimensions[d]
    u = state.space_factors[d].u
    coeffs = []
    for coeff in (spec.P, spec.Q):
        per_component = [_term_weights(spec, coeff, state, d, ell)
                         for ell in range(spec.components)]
        weights = [sum(ws) / spec.components for ws in zip(*per_component)]
        coeffs.append(_weighted_sum(_dimension_factors(coeff, d, u), weights, dim.interval))
    return SLProblem(coeffs[0], coeffs[1], dim.r, dim.bc)


def _with_space_factor(state: SeparableEigenstate, d: int,
                       pair: EigenPair) -> SeparableEigenstate:
    factors = state.space_factors
    return replace(state, space_factors=factors[:d] + (pair,) + factors[d + 1:])


def solve_state(spec: SigmaModelSpec, label: str, target_modes: Sequence[int],
                tol: float = 1e-10, max_iter: int = MAX_SWEEPS,
                amplitude: float = 1.0) -> tuple[SeparableEigenstate, IterationReport]:
    """Alternating solve of one separable eigenstate.

    ``target_modes`` selects the 1-based eigenvalue branch tracked in each
    space dimension. One immutable ``SeparableEigenstate`` is iterated, each
    update a ``dataclasses.replace``. Its time factors are the normalized
    harmonic pair of degree ``action.TIME_PAIR_DEGREE``, fixed for the whole
    solve; the action integral reads the quantum off the same pair. Each
    sweep installs every space dimension's frozen-coefficient eigenpair as
    solved. Sweeps repeat until the largest space-factor change is below
    ``tol``; a factor's change is the sup norm of old minus new at 129
    Chebyshev points of its interval. Each eigensolve is warm-started at
    its factor's ``degree_used`` minus 2 (see
    ``sturm_liouville.solve``), so a final degree can sit 2 above the cold
    solve's. A dimension whose space problem equals the one its factor was
    solved from keeps that factor, with a change of 0, and is not solved
    again. This is exact: the factor stopped at some degree D, and the
    re-solve would start at D - 2 on the same reduced pencil, where the
    warm-start guarantee returns bit-identical pairs. So a linear model
    whose frozen problems no sweep moves (one space dimension, or unit
    coefficient terms) makes one eigensolve per space dimension. Sweep 0
    replaces the constant placeholder factors, whose ``degree_used`` of 0
    makes its eigensolves cold, and is not counted, so its change is not
    computed.
    No sweep reads the frequency, so it is pinned once, on the converged
    factors (``_pin_time``). The returned state is the last iterate with its
    frequency, time eigenvalues and ``space_norms`` filled in. ``max_iter``
    must be at least 1; exceeding it raises NonConvergenceError with the
    report attached.
    """
    n_space = len(spec.space_dims)
    targets = [int(t) for t in target_modes]
    if len(targets) != n_space:
        raise DomainError(f"need one target mode per space dimension ({n_space})")
    if any(t < 1 for t in targets):
        raise DomainError("target modes are 1-based and must be >= 1")
    if not tol > 0:
        raise DomainError("tol must be positive")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")

    pair = action_mod.make_time_pair(1.0)
    r_t = spec.time_dim.r
    time_polys = (_normalized(pair.u1, r_t), _normalized(pair.u2, r_t))
    state = SeparableEigenstate(
        label=label,
        space_factors=tuple(EigenPair(0.0, _normalized(constant(1.0, dim.interval), dim.r), 0)
                            for dim in spec.space_dims),
        time_factors=tuple(EigenPair(0.0, time_polys[ell % 2], action_mod.TIME_PAIR_DEGREE)
                           for ell in range(spec.components)),
        omega=1.0, amplitude=float(amplitude), space_norms=(), components=spec.components)

    report = IterationReport()
    # The problem each dimension's current factor was solved from.
    solved: list[SLProblem | None] = [None] * n_space
    for sweep in range(max_iter + 1):
        worst = 0.0
        for d in range(n_space):
            problem = _space_problem(spec, state, d)
            if problem == solved[d]:
                continue  # solving it again would return the same factor
            # Warm start: the last final degree minus 2 keeps two visited
            # degrees in every stopping test.
            old = state.space_factors[d]
            pairs, _ = sl_solve(problem, num_modes=targets[d], k_tol=SL_K_TOL,
                                max_degree=SL_MAX_DEGREE, start_degree=old.degree_used - 2)
            new = pairs[targets[d] - 1]
            state = _with_space_factor(state, d, new)
            solved[d] = problem
            if sweep > 0:
                worst = max(worst, _sup_change(old.u, new.u))
        if sweep == 0:
            continue
        report.iterations = sweep
        report.factor_changes.append(worst)
        if worst < tol:
            report.converged = True
            break
    if not report.converged:
        raise NonConvergenceError(
            f"state {label!r} not converged in {max_iter} sweeps", report=report
        )

    state = _pin_time(spec, state)
    norms = tuple(
        integrate_product(dim.r, f.u, f.u)
        for dim, f in zip(spec.space_dims, state.space_factors)
    )
    return replace(state, space_norms=norms), report


def _bracket_value(spec: SigmaModelSpec, state: SeparableEigenstate,
                   component: int, diff_dim: int) -> float:
    """One bracket of the balance functional: the diff_dim term of one component.

    Independent of the effective-coefficient machinery: every separable term
    is integrated dimension by dimension, with the time dimension carrying
    the tau = omega*t measure (1/omega per plain integral, an extra omega^2
    when differentiated). The coupling is one more term, weighted by
    g * amplitude^2, whose factor in each dimension is that dimension's u^2.
    """
    dims = spec.dimensions
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
                    du = differentiate(u)
                    val = integrate_product(*fs, du, du)
                else:
                    val = integrate_product(*fs, u, u)
                if d == spec.time_index:
                    val = val * omega if is_p and d == diff_dim else val / omega
                prod *= val
            total += prod if is_p else -prod
    return total


def null_postulate_residual(spec: SigmaModelSpec, state: SeparableEigenstate) -> float:
    """Relative gap between the space-side and time-side integrals.

    Both sides are evaluated over one irreducible time piece by direct
    separable quadrature, so this is an independent check on the pinned
    frequency, not a restatement of it. A vanished field gives 0 (degenerate:
    both sides are zero).
    """
    space_term = 0.0
    time_term = 0.0
    for ell in range(state.components):
        for d in range(len(spec.space_dims)):
            space_term += _bracket_value(spec, state, ell, d)
        time_term += _bracket_value(spec, state, ell, spec.time_index)
    return abs(space_term - time_term) / (abs(space_term) + 1e-30)


def detuned(state: SeparableEigenstate, factor: float) -> SeparableEigenstate:
    """Copy of the state with its frequency scaled; used to probe the balance."""
    return replace(state, omega=state.omega * factor)
