"""Shared builders for the benchmark problems used across the suite."""

import math

import pytest
from hypothesis import settings

from eigenforge import sturm_liouville
from eigenforge.polynomials import poly
from eigenforge.sigma_model import CoeffField, DimensionSpec, ModeSpec, SigmaModelSpec
from eigenforge.sturm_liouville import DIRICHLET, SLProblem

# Every run draws the same examples: no test passes or fails with the draw.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def make_unit_problem(interval=(0.0, 1.0), bc=DIRICHLET):
    one = poly([1.0], interval)
    zero = poly([0.0], interval)
    return SLProblem(one, zero, one, bc)


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
    """The degrees of every pencil assembly from now on, with no pencil kept."""
    calls, assemble = [], sturm_liouville._assemble

    def counted(prob, degree):
        calls.append(degree)
        return assemble(prob, degree)

    sturm_liouville._ritz_sequence.cache_clear()
    monkeypatch.setattr(sturm_liouville, "_assemble", counted)
    return calls


@pytest.fixture(scope="session")
def string_spec():
    return make_string_spec()
