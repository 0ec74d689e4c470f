"""Shared builders for the benchmark problems used across the suite."""

import math

import numpy as np
import pytest
from hypothesis import settings

from eigenforge import serialize, sturm_liouville
from eigenforge.polynomials import as_series, integrate_product, poly
from eigenforge.sigma_model import CoeffField, DimensionSpec, ModeSpec, SigmaModelSpec
from eigenforge.sturm_liouville import (
    DIRICHLET,
    VANISH_DERIVATIVE,
    VANISH_VALUE,
    BoundaryCondition,
    SLProblem,
)

# The Neumann pair: the derivative vanishes at both ends.
NEUMANN = BoundaryCondition(VANISH_DERIVATIVE, VANISH_DERIVATIVE)

# Every run draws the same examples: no test passes or fails with the draw.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def make_unit_problem(interval=(0.0, 1.0), bc=DIRICHLET):
    one = poly([1.0], interval)
    zero = poly([0.0], interval)
    return SLProblem(one, zero, one, bc)


def problem_to_obj(prob):
    """The problem JSON that ``eigenforge eigen --problem`` reads."""
    return {"p": serialize.poly_to_obj(prob.p), "q": serialize.poly_to_obj(prob.q),
            "r": serialize.poly_to_obj(prob.r), "bc": serialize.bc_to_obj(prob.bc)}


def boundary_residuals(prob, u):
    """|u| or |du/dx| at each endpoint, whichever the condition constrains."""
    lo, hi = prob.interval
    du = u.derivative()
    res_a = abs(float((u if prob.bc.at_a == VANISH_VALUE else du).values(lo)))
    res_b = abs(float((u if prob.bc.at_b == VANISH_VALUE else du).values(hi)))
    return res_a, res_b


def rayleigh_quotient(prob, u):
    """(int p u'^2 - q u^2) / (int r u^2), all integrals exact: the reference
    a returned eigenvalue is checked against.

    The trial function must be nonzero and meet each boundary condition to
    1e-9 times the sum of |Legendre coefficients| of the function it
    constrains (u or u'), a bound on that function's sup, and its weighted
    norm must be positive. Both rules, like the quotient, are free of the
    scale of u and of the interval.
    """
    assert u.coeffs != (0.0,), "trial function is identically zero"
    du = u.derivative()
    constrained = [u if kind == VANISH_VALUE else du for kind in (prob.bc.at_a, prob.bc.at_b)]
    sups = [float(np.abs(as_series(f).coeffs).sum()) for f in constrained]
    residuals = boundary_residuals(prob, u)
    assert all(res <= 1e-9 * sup for res, sup in zip(residuals, sups)), (
        f"trial violates boundary conditions: residuals {residuals}")
    denom = integrate_product(prob.r, u, u)
    assert denom > 0, f"weighted norm {denom:.3e} is not positive"
    return (integrate_product(prob.p, du, du) - integrate_product(prob.q, u, u)) / denom


def make_string_spec(coupling_g: float = 0.0, num_modes: int = 3) -> SigmaModelSpec:
    """One space dimension (0, pi) with unit coefficients; quadratic coupling
    optionally switched into the potential field."""
    space_iv = (0.0, math.pi)
    time_iv = (0.0, math.pi / 2)
    space = DimensionSpec(space_iv, poly([1.0], space_iv), DIRICHLET)
    time = DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
    p_field = CoeffField(terms=((poly([1.0], space_iv), poly([1.0], time_iv)),))
    q_field = CoeffField(terms=(), coupling_g=coupling_g)
    modes = tuple(ModeSpec(f"m{m}", (m,)) for m in range(1, num_modes + 1))
    return SigmaModelSpec((space,), time, p_field, q_field, modes=modes)


def coupled_spec(lengths, bcs, g, origin=0.0):
    """Coupled space dimensions (origin, origin + L) x ... with unit coefficients."""
    ivs, time_iv = [(origin, origin + L) for L in lengths], (0.0, math.pi / 2)
    space = tuple(DimensionSpec(iv, poly([1.0], iv), bc) for iv, bc in zip(ivs, bcs))
    time = DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
    p_field = CoeffField(terms=(tuple(poly([1.0], iv) for iv in ivs) + (poly([1.0], time_iv),),))
    return SigmaModelSpec(space, time, p_field, CoeffField(terms=(), coupling_g=g))


def count_assemblies(monkeypatch):
    """The degrees of every pencil assembly from now on: one per solve of a
    variable-coefficient problem, and one per reference pencil first built."""
    calls, assemble = [], sturm_liouville._assemble

    def counted(prob, degree):
        calls.append(degree)
        return assemble(prob, degree)

    monkeypatch.setattr(sturm_liouville, "_assemble", counted)
    return calls


@pytest.fixture(scope="session")
def string_spec():
    return make_string_spec()
