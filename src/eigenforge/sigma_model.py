"""Separable nonlinear field solver.

A field eigenstate factorizes into one eigenfunction per dimension. Each
space factor is obtained from a one-dimensional eigensolve whose coefficients
are the multi-dimensional ones averaged over every *other* dimension's current
factor (the self-consistent freeze-the-rest reduction); a quadratic
self-coupling enters through fourth-moment averages and the frozen factor's
square, interpolated exactly. The single time dimension is never solved: its
harmonic pair is frequency-free, so its factors are fixed for the whole solve
and no sweep reads the frequency. Once the space factors have converged, the
frequency is set, once, so the effective time eigenvalues of the components
add up to their summed effective space eigenvalues, which enforces the
eigenvalue-balance (indicial) constraint. In the linear case
omega = sqrt(sum lambda_space). One reduction, ``effective_coeffs``, gives
both the space problems of every sweep (averaged over the components, which
share the space factors) and the time coefficients of the pin (one
component at a time).

Each sweep installs the eigenpairs as solved, undamped, and sweeps repeat
until the largest space-factor change drops below tolerance. Factors are
Legendre series of unit r-weighted norm, and a factor's change is the
r-weighted L2 norm of old minus new, the norm each is normalized in: a
measure of the function, not of the coefficients that represent it. An
eigensolve is a function of its problem alone, so a sweep whose problem in a
dimension is unchanged does not solve it again: the eigensolve would return
the same factor. A dimension's frozen problem is in turn a function of its
inputs alone: the other space factors, and its own factor when the model is
coupled (the time pair and the amplitude are fixed for the solve). A sweep in
which none of them changed since the problem was last derived does not derive
it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import action as action_mod
from .errors import ConditioningError, DomainError, NonConvergenceError, echo, require_int
from .polynomials import (
    LegendreSeries,
    Polynomial,
    as_series,
    integrate_product,
)
from .sturm_liouville import (
    BoundaryCondition,
    EigenPair,
    SLProblem,
    max_modes,
    require_positive,
    solve as sl_solve,
)

# Default and largest sweep cap of a field solve, shared with ``eigenforge sigma``.
MAX_SWEEPS = 200
# Bound on a model's field components; a solve's work grows linearly with them.
MAX_COMPONENTS = 256
# Eigenvalue stopping tolerance and degree cap of each space-factor eigensolve.
SL_K_TOL = 1e-12
SL_MAX_DEGREE = 40


@dataclass(frozen=True)
class DimensionSpec:
    """One coordinate: its interval, weight polynomial, and endpoint conditions.
    Factors are normalized under r; ``SigmaModelSpec`` refuses an r not positive."""

    interval: tuple[float, float]
    r: Polynomial
    bc: BoundaryCondition

    def __post_init__(self):
        object.__setattr__(self, "interval", tuple(float(v) for v in self.interval))
        if self.r.interval != self.interval:
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


def _check_mode(label: str, targets: Sequence[int], n_space: int, label_where: str,
                where: str) -> None:
    """Refuse a label that is not a ``str``, and targets unless there is one
    per space dimension, each an ``int`` between 1 and the most modes a space
    factor's capped eigensolve can stop on. Each refusal names its field."""
    if type(label) is not str:
        raise DomainError(f"{label_where} must be a string, got {type(label).__name__}")
    if len(targets) != n_space:
        raise DomainError(f"{where}: need one target mode per space dimension ({n_space})")
    most = max_modes(SL_MAX_DEGREE)
    for j, target in enumerate(targets):
        if type(target) is not int:
            raise DomainError(f"{where}[{j}] is {echo(target)}; target modes must be integers")
        if target < 1:
            raise DomainError(
                f"{where}[{j}] is {echo(target)}; target modes are 1-based and must be >= 1"
            )
        if target > most:
            raise DomainError(
                f"{where}[{j}] is {echo(target)}; a space factor's eigensolve "
                f"(degree cap {SL_MAX_DEGREE}) can track at most mode {most}"
            )


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
        if not 1 <= require_int(self.components, "components") <= MAX_COMPONENTS:
            raise DomainError(
                f"components must be between 1 and {MAX_COMPONENTS}, got {echo(self.components)}"
            )
        quarter = (0.0, action_mod.QUARTER_PERIOD)
        if self.time_dim.interval != quarter:
            raise DomainError(
                f"time_dim interval must be {quarter}, the quarter period the harmonic "
                f"pair lives on, got {self.time_dim.interval}"
            )
        dims = self.dimensions
        wheres = [f"space_dims[{d}]" for d in range(self.time_index)] + ["time_dim"]
        for dim, where in zip(dims, wheres):
            require_positive(dim.r, f"{where}.r")
        for i, mode in enumerate(self.modes):
            _check_mode(mode.label, mode.targets, len(self.space_dims), f"modes[{i}].label",
                        f"modes[{i}].targets")
        for name, coeff in (("P", self.P), ("Q", self.Q)):
            for i, term in enumerate(coeff.terms):
                if len(term) != len(dims):
                    raise DomainError(
                        f"every {name} term needs one factor per dimension ({len(dims)})"
                    )
                for d, (factor, dim) in enumerate(zip(term, dims)):
                    if factor.interval != dim.interval:
                        raise DomainError(
                            f"{name} term {i} factor {d} lives on {factor.interval}, "
                            f"not on the interval {dim.interval} of {wheres[d]}"
                        )

    @property
    def dimensions(self) -> tuple[DimensionSpec, ...]:
        return self.space_dims + (self.time_dim,)

    @property
    def time_index(self) -> int:
        return len(self.space_dims)


def _relative_gap(space: float, time: float) -> float:
    """|space - time| over the larger side, so it reads the same on every
    scale; 0 when both sides vanish."""
    scale = max(abs(space), abs(time))
    return abs(space - time) / scale if scale else 0.0


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

    @property
    def components(self) -> int:
        """The field components: one time factor each."""
        return len(self.time_factors)

    def factor_poly(self, component: int, dim_index: int) -> Polynomial:
        if dim_index < len(self.space_factors):
            return self.space_factors[dim_index].u
        return self.time_factors[component].u

    def lambda_space_sum(self) -> float:
        return sum(p.lambda_ for p in self.space_factors)

    def indicial_residual(self) -> float:
        """Gap between components * lambda_sum and the summed time eigenvalues,
        relative to the larger side (``_relative_gap``)."""
        space = self.components * self.lambda_space_sum()
        return _relative_gap(space, sum(p.lambda_ for p in self.time_factors))


@dataclass
class IterationReport:
    factor_changes: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        """The counted sweeps: each records one factor change."""
        return len(self.factor_changes)


# The averages and moments are not kept: each is a ratio of two integrals
# that ``integrate_product`` keeps.
def _weighted_average(f: Polynomial, u: Polynomial, r: Polynomial) -> float:
    """int f u^2 r / int u^2 r."""
    return integrate_product(f, u, u, r) / integrate_product(u, u, r)


def _moment_ratio(u: Polynomial, r: Polynomial) -> float:
    """int u^4 r / int u^2 r."""
    return integrate_product(u, u, u, u, r) / integrate_product(u, u, r)


def effective_coeffs(spec: SigmaModelSpec, state: SeparableEigenstate, dim_index: int,
                     components: Sequence[int]) -> tuple[Polynomial, Polynomial]:
    """Reduce the multi-dimensional coefficient fields onto one dimension.

    For each separable term, the factor on the target dimension is kept,
    weighted by the product of its other factors' weighted averages over
    their dimensions' current eigenfunctions (ratios, so unnormalized factors
    are harmless). The quadratic coupling, present only for a nonzero
    constant, contributes coupling_g * amplitude^2 times the other
    dimensions' fourth-to-second moment ratios times the target factor's
    fitted square (``Polynomial.square``). Each weight is averaged over
    ``components``, which must share the target dimension's factor: every
    component for a space dimension, one component for the time dimension.
    Both coefficients are Legendre series, whatever the terms: the sum starts
    from the zero series, and each term factor is added as its
    ``as_series``.
    """
    dims = spec.dimensions
    others = [d for d in range(len(dims)) if d != dim_index]
    u = state.factor_poly(components[0], dim_index)
    coeffs = []
    for coeff in (spec.P, spec.Q):
        acc = LegendreSeries((0.0,), dims[dim_index].interval)
        for term in coeff.terms:
            weight = sum(math.prod(_weighted_average(term[d], state.factor_poly(ell, d), dims[d].r)
                                   for d in others) for ell in components) / len(components)
            acc = acc + as_series(term[dim_index]) * weight
        if coeff.coupling_g != 0.0:
            g = coeff.coupling_g * state.amplitude ** 2
            weight = sum(math.prod((_moment_ratio(state.factor_poly(ell, d), dims[d].r)
                                    for d in others), start=g)
                         for ell in components) / len(components)
            acc = acc + u.square * weight
        coeffs.append(acc)
    return coeffs[0], coeffs[1]


def _pin_time(spec: SigmaModelSpec, state: SeparableEigenstate) -> SeparableEigenstate:
    """The state with the frequency that equates the effective time eigenvalues
    with the summed effective space eigenvalues.

    Component ell's time factor u gives kinetic K_ell = int p_eff u'u',
    potential V_ell = int q_eff u u and mass M_ell = int r_t u u, with
    ``effective_coeffs`` on the time dimension for that component alone.
    The balance is one equation over all components, so it is solved on the
    sums: omega^2 = (lambda_sum * sum M + sum V) / sum K. Each time
    eigenvalue is then (omega^2 K_ell - V_ell) / M_ell; with normalized time
    factors they add up to components * lambda_sum, so the indicial residual
    vanishes even when the components' time coefficients differ (terms that
    depend on time). The time dimension's own effective potential is
    included, so the balance survives a nonzero coupling.
    """
    lam_sum = state.lambda_space_sum()
    t = spec.time_index
    per_component = []
    for ell, factor in enumerate(state.time_factors):
        u, du = factor.u, factor.u.derivative()
        p_eff, q_eff = effective_coeffs(spec, state, t, (ell,))
        per_component.append((integrate_product(p_eff, du, du), integrate_product(q_eff, u, u),
                              integrate_product(spec.time_dim.r, u, u)))
    kinetic, potential, mass = (sum(column) for column in zip(*per_component))
    omega_sq = (lam_sum * mass + potential) / kinetic
    scale = (abs(lam_sum * mass) + abs(potential)) / abs(kinetic)
    if abs(omega_sq) <= 16 * np.finfo(float).eps * scale:  # zero to rounding, either sign
        raise DomainError(f"pinned frequency squared {omega_sq} vanishes to rounding "
                          f"(scale {scale:.3g}): a zero-frequency state")
    if not omega_sq > 0:
        raise DomainError(
            f"pinned frequency squared {omega_sq} must be positive; "
            "the space eigenvalue sum is too low"
        )
    time_factors = tuple(
        replace(pair, lambda_=(omega_sq * k - v) / m)
        for pair, (k, v, m) in zip(state.time_factors, per_component)
    )
    return replace(state, omega=math.sqrt(omega_sq), time_factors=time_factors)


def _change(old: Polynomial, new: Polynomial, r: Polynomial) -> float:
    """The r-weighted norm of old minus new: the exact difference of the two
    series, integrated, so no cancellation as in 2 - 2 <old, new>."""
    d = old - new
    return math.sqrt(integrate_product(r, d, d))


# Bound of ``_unit_norm`` alone, which keeps unit-norm scalings by value: each
# solve scales the one time pair under its model's time weight, and a new
# constant series under each space weight, values seen in earlier solves. A
# kept scaling makes the time factors the same objects in every solve, so the
# derivatives and squares kept on them are computed once, not once per solve.
# Polynomials are immutable values, so they key the cache.
_FACTOR_CACHE = 32


@lru_cache(maxsize=_FACTOR_CACHE)
def _unit_norm(u: Polynomial, r: Polynomial) -> Polynomial:
    """u scaled to unit r-weighted norm, its sign kept."""
    return u * (1.0 / math.sqrt(integrate_product(r, u, u)))


def solve_state(spec: SigmaModelSpec, label: str, target_modes: Sequence[int],
                tol: float = 1e-10, max_iter: int = MAX_SWEEPS,
                amplitude: float = 1.0) -> tuple[SeparableEigenstate, IterationReport]:
    """Alternating solve of one separable eigenstate.

    ``target_modes`` selects the 1-based eigenvalue branch tracked in each
    space dimension; a target that is not an ``int``, or a ``label`` that is
    not a ``str``, is refused by name (``_check_mode``). One immutable
    ``SeparableEigenstate`` is iterated, each update a ``dataclasses.replace``.
    Its time factors are the harmonic pair of degree
    ``action.TIME_PAIR_DEGREE``, fixed for the whole solve;
    ``action.action_for_state`` reads the quantum off the same pair. They and
    the constant Legendre series the space factors start from are only scaled
    to unit weighted norm, once per (factor, weight) for every solve: their
    signs already meet the eigensolve's, the library's one sign rule. Each
    sweep installs every space dimension's frozen-coefficient eigenpair as
    solved. Sweeps repeat until the largest space-factor change is below
    ``tol``; a factor's change is the r-weighted L2 norm of old minus new
    (``_change``), both of unit norm under the dimension's r, so it is at
    most 2. Every eigensolve escalates from degree 2, so its factor depends
    on its frozen problem alone. A
    dimension whose space problem equals the one its factor was solved from
    therefore keeps that factor, with a change of 0, and is not solved
    again: the eigensolve would return it bit for bit. So a linear model
    whose frozen problems no sweep moves (one space dimension, or unit
    coefficient terms) makes one eigensolve per space dimension. The
    problem itself is derived again only when one of its inputs changed
    since it was last derived: another space dimension's factor, or its own
    factor when ``P`` or ``Q`` has a nonzero ``coupling_g`` (the factor's
    square enters the coupling term); the time pair and the amplitude are
    fixed for the solve. An input that changed without moving the problem
    (a 2-D model with unit coefficient terms) still meets the equality
    test. So a linear model in one space dimension derives its problem once,
    and a coupled model derives every space problem in every sweep. Sweep 0
    replaces the constant starting factors and is not counted, so its
    change is not computed.
    No sweep reads the frequency, so it is pinned once, on the converged
    factors (``_pin_time``). The returned state is the last iterate with its
    frequency, time eigenvalues and ``space_norms`` filled in. ``max_iter``
    must be an ``int`` from 1 to ``MAX_SWEEPS``, and ``amplitude`` finite; a
    solve that needs more sweeps raises NonConvergenceError with the report
    attached and cause ``"sweep_cap"``. A space problem's DomainError or
    ConditioningError, or its eigensolve's NonConvergenceError of cause
    ``"degree_cap"``, is raised again with its type and cause, its message
    prefixed with the state's label, the space dimension and the sweep (0 for
    the uncounted first); the last also carries its Ritz trace and the report
    of the sweeps counted so far.
    """
    n_space = len(spec.space_dims)
    _check_mode(label, target_modes, n_space, "label", "target_modes")
    if not tol > 0:
        raise DomainError("tol must be positive")
    if not 1 <= require_int(max_iter, "max_iter") <= MAX_SWEEPS:
        raise DomainError(f"max_iter must be at least 1 and at most MAX_SWEEPS = {MAX_SWEEPS}, "
                          f"got {echo(max_iter)}")
    if not math.isfinite(amplitude):
        raise DomainError(f"amplitude must be finite, got {amplitude!r}")

    pair = action_mod.make_time_pair()
    r_t = spec.time_dim.r
    time_polys = (_unit_norm(pair.u1, r_t), _unit_norm(pair.u2, r_t))
    state = SeparableEigenstate(
        label=label,
        space_factors=tuple(
            EigenPair(0.0, _unit_norm(LegendreSeries((1.0,), dim.interval), dim.r), 0)
            for dim in spec.space_dims),
        time_factors=tuple(EigenPair(0.0, time_polys[ell % 2], action_mod.TIME_PAIR_DEGREE)
                           for ell in range(spec.components)),
        omega=1.0, amplitude=float(amplitude), space_norms=())

    report = IterationReport()
    # The problem each dimension's current factor was solved from, and whether
    # an input of that problem has changed since it was last derived.
    solved: list[SLProblem | None] = [None] * n_space
    moved = [True] * n_space
    coupled = spec.P.coupling_g != 0.0 or spec.Q.coupling_g != 0.0
    for sweep in range(max_iter + 1):
        worst = 0.0
        for d in range(n_space):
            if not moved[d]:
                continue  # deriving it again would return the same problem
            moved[d] = False
            dim = spec.space_dims[d]
            where = f"state {label!r}, space dimension {d}, sweep {sweep}"
            try:
                problem = SLProblem(*effective_coeffs(spec, state, d, range(spec.components)),
                                    dim.r, dim.bc)
                if problem == solved[d]:
                    continue  # solving it again would return the same factor
                pairs, _ = sl_solve(problem, num_modes=target_modes[d], k_tol=SL_K_TOL,
                                    max_degree=SL_MAX_DEGREE)
            except NonConvergenceError as exc:
                raise NonConvergenceError(f"{where}: {exc}", cause=exc.cause, trace=exc.trace,
                                          report=report) from exc
            except DomainError as exc:
                raise DomainError(f"{where}: {exc}") from exc
            except ConditioningError as exc:
                raise ConditioningError(f"{where}: {exc}", cause=exc.cause) from exc
            old = state.space_factors[d]
            new = pairs[target_modes[d] - 1]
            factors = state.space_factors
            state = replace(state, space_factors=factors[:d] + (new,) + factors[d + 1:])
            solved[d] = problem
            moved = [coupled or e != d for e in range(n_space)]
            if sweep > 0:
                worst = max(worst, _change(old.u, new.u, dim.r))
        if sweep == 0:
            continue
        report.factor_changes.append(worst)
        if worst < tol:
            report.converged = True
            break
    if not report.converged:
        raise NonConvergenceError(
            f"state {label!r} not converged in {max_iter} sweeps", cause="sweep_cap",
            report=report)

    state = _pin_time(spec, state)
    norms = tuple(
        integrate_product(dim.r, f.u, f.u)
        for dim, f in zip(spec.space_dims, state.space_factors)
    )
    return replace(state, space_norms=norms), report


def null_postulate_residual(spec: SigmaModelSpec, state: SeparableEigenstate) -> float:
    """Relative gap between the space-side and time-side integrals.

    Both sides are evaluated over one irreducible time piece by direct
    separable quadrature, apart from ``effective_coeffs``, so this is an
    independent check on the pinned frequency. For each component and term
    (the coupling is one more term, weighted by g * amplitude^2, whose factor
    in each dimension is u^2), every dimension is integrated twice: weighted,
    int f u u r, and plain, int f u'u' for P or int f u u for Q. Bracket k
    takes the plain value on dimension k and the weighted one elsewhere; the
    time dimension carries the tau = omega*t measure (1/omega per integral,
    omega instead when differentiated). The gap is relative to the larger
    side (``_relative_gap``), so a vanished field gives 0.
    """
    dims = spec.dimensions
    t = spec.time_index
    omega = state.omega
    amp2 = state.amplitude ** 2
    space_term = 0.0
    time_term = 0.0
    for ell in range(state.components):
        us = [state.factor_poly(ell, d) for d in range(len(dims))]
        brackets = [0.0] * len(dims)
        for coeff, is_p in ((spec.P, True), (spec.Q, False)):
            vs = [u.derivative() for u in us] if is_p else us
            terms = [(amp2, [(f,) for f in term]) for term in coeff.terms]
            if coeff.coupling_g != 0.0:
                terms.append((coeff.coupling_g * amp2 * amp2, [(u, u) for u in us]))
            for prefactor, factors in terms:
                weighted = [integrate_product(*fs, u, u, dim.r)
                            for fs, u, dim in zip(factors, us, dims)]
                own = [integrate_product(*fs, v, v) for fs, v in zip(factors, vs)]
                weighted[t] /= omega
                own[t] = own[t] * omega if is_p else own[t] / omega
                for k in range(len(dims)):
                    prod = math.prod(weighted[:k] + own[k:k + 1] + weighted[k + 1:],
                                     start=prefactor)
                    brackets[k] += prod if is_p else -prod
        for k in range(t):
            space_term += brackets[k]
        time_term += brackets[t]
    return _relative_gap(space_term, time_term)
