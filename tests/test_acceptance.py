"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    make_string_spec,
    make_unit_problem,
    problem_to_obj,
    rayleigh_quotient,
    run_cli,
    run_fresh,
)
from eigenforge import serialize
from eigenforge.action import action_for_state, closure_check, fit_spectrum
from eigenforge.errors import NoLatticeError
from eigenforge.godel import count_vs_box, decode, encode, enumerate_definable
from eigenforge.polynomials import poly
from eigenforge.qstar import (
    FINITE,
    INFINITE,
    INFINITESIMAL,
    OMEGA,
    QStarElement,
    classify,
    element,
    equal,
    identical,
)
from eigenforge.sigma_model import null_postulate_residual, solve_state
from eigenforge.sturm_liouville import DIRICHLET, SLProblem, solve
from eigenforge.sturm_liouville import solve as sl_solve
from test_godel import canonical_distributions
from test_qstar import random_element

PI = math.pi


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")
        return run
    return wrap


@pytest.fixture(scope="module")
def string_states():
    spec = make_string_spec(num_modes=3)
    states = {}
    start = time.perf_counter()
    for m in (1, 2, 3):
        state, report = solve_state(spec, f"m{m}", (m,), tol=1e-10, max_iter=100)
        assert report.converged
        states[m] = state
    elapsed = time.perf_counter() - start
    return spec, states, elapsed


@criterion(1, "dirichlet benchmark")
def test_criterion_1_dirichlet_benchmark():
    prob = make_unit_problem()
    start = time.perf_counter()
    pairs, trace = solve(prob, num_modes=2, k_tol=1e-10, max_degree=16)
    elapsed = time.perf_counter() - start
    lam1, lam2 = pairs[0].lambda_, pairs[1].lambda_
    assert abs(lam1 - PI**2) / PI**2 <= 1e-6
    assert abs(lam2 - 4 * PI**2) / (4 * PI**2) <= 1e-5
    assert pairs[0].degree_used <= 16
    assert trace.entries[0][0] == 2
    assert abs(trace.entries[0][1] - 10.0) <= 1e-12
    lams = [lam for _, lam in trace.entries]
    assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(lams[:-1], lams[1:]))
    assert elapsed < 1.0


@criterion(2, "rayleigh identity")
def test_criterion_2_rayleigh_identity():
    iv = (0.0, 1.0)
    problems = [
        make_unit_problem(),
        SLProblem(poly([1.0, 1.0], iv), poly([0.0, -1.0], iv),
                  poly([1.0, 0.0, 1.0], iv), DIRICHLET),
    ]
    for prob in problems:
        pairs, _ = solve(prob, num_modes=3, k_tol=1e-10, max_degree=40)
        for pair in pairs:
            rq = rayleigh_quotient(prob, pair.u)
            assert abs(rq - pair.lambda_) <= 1e-10 * (1.0 + abs(pair.lambda_))


@criterion(3, "quarter-period action")
def test_criterion_3_quarter_period_action():
    class _State:
        def __init__(self, amplitude):
            self.amplitude = amplitude
            self.space_norms = (1.0,)

    assert abs(action_for_state(_State(1.0)) - PI / 2) <= 1e-7
    assert abs(action_for_state(_State(2.0)) - 2 * PI) <= 4e-7


@criterion(4, "string sigma model")
def test_criterion_4_string_sigma_model(string_states):
    spec, states, elapsed = string_states
    for m, state in states.items():
        assert state.indicial_residual() <= 1e-10
        assert abs(state.omega - m) <= 1e-8
        assert null_postulate_residual(spec, state) <= 1e-8
    assert elapsed < 5.0


@criterion(5, "quantization lattice")
def test_criterion_5_quantization_lattice(string_states):
    _, states, _ = string_states
    alphas = [action_for_state(states[m]) for m in (1, 2, 3)]
    spectrum = fit_spectrum(["m1", "m2", "m3"], alphas, tol=1e-8)
    assert spectrum.residuals == tuple(abs(a - n * spectrum.quantum)
                                       for a, n in zip(alphas, spectrum.multipliers))
    assert all(r <= 1e-8 for r in spectrum.residuals)
    assert closure_check(alphas, spectrum.quantum, tol=1e-8)
    with pytest.raises(NoLatticeError):
        fit_spectrum(["a", "b"], [1.0, math.sqrt(2.0)], tol=1e-9)


@criterion(6, "nonlinear regime")
def test_criterion_6_nonlinear_regime():
    coupled = make_string_spec(coupling_g=0.01)
    state, report = solve_state(coupled, "m1", (1,), tol=1e-10, max_iter=200)
    assert report.converged
    assert report.iterations <= 200

    linear = make_string_spec(coupling_g=0.0)
    state0, _ = solve_state(linear, "m1", (1,))
    iv = (0.0, PI)
    prob = SLProblem(poly([1.0], iv), poly([0.0], iv), poly([1.0], iv), DIRICHLET)
    pairs, _ = sl_solve(prob, num_modes=1, k_tol=1e-12, max_degree=40)
    ref, got = pairs[0].u, state0.space_factors[0].u
    n = max(len(ref.coeffs), len(got.coeffs))
    a = np.zeros(n); a[: len(ref.coeffs)] = ref.coeffs
    b = np.zeros(n); b[: len(got.coeffs)] = got.coeffs
    assert float(np.abs(a - b).max()) <= 1e-10


@criterion(7, "codec")
def test_criterion_7_codec():
    start = time.perf_counter()
    dists = canonical_distributions(8, 5)
    assert len(dists) == 1287
    seen = set()
    for d in dists:
        g = encode(d)
        assert decode(g) == d
        assert g not in seen
        seen.add(g)
    for g in range(1, 10001):
        assert encode(decode(g)) == g
    states = enumerate_definable([1.0, 2.0], 2 * PI, 2.0)
    assert [s.godel for s in states] == [1, 2, 3, 4]
    counts_e = [len(enumerate_definable([1.0, 2.0], 2 * PI, e)) for e in (0.0, 1.0, 2.0, 3.0)]
    assert counts_e == sorted(counts_e)
    counts_l = [c for _, c in count_vs_box([1.0, 2.0, 4.0], 2.0, 3)]
    assert counts_l == sorted(counts_l)
    assert time.perf_counter() - start < 5.0


@criterion(8, "ratio-field suite")
def test_criterion_8_qstar_suite():
    import random

    start = time.perf_counter()
    rng = random.Random(0)
    sample = [random_element(rng) for _ in range(1000)]
    swap = {INFINITESIMAL: INFINITE, INFINITE: INFINITESIMAL, FINITE: FINITE}
    for e in sample:
        cls = classify(e)
        assert cls in (INFINITESIMAL, FINITE, INFINITE)
        assert classify(QStarElement(e.den, e.num)) == swap[cls]
        copy = element(e.num, e.den)
        assert identical(e, copy) and equal(e, copy)
    witness = (OMEGA + element(1)) / OMEGA
    assert equal(witness, element(1)) and not identical(witness, element(1))
    subset = sample[:100]
    reps, labels = [], []
    for e in subset:
        assert equal(e, e)
        for idx, rep in enumerate(reps):
            if equal(e, rep):
                labels.append(idx)
                break
        else:
            reps.append(e)
            labels.append(len(reps) - 1)
    for i in range(len(subset)):
        for j in range(i + 1, len(subset)):
            same = labels[i] == labels[j]
            assert equal(subset[i], subset[j]) == same
            assert equal(subset[j], subset[i]) == same
    assert time.perf_counter() - start < 1.0


@criterion(9, "determinism")
def test_criterion_9_determinism(tmp_path):
    # The suite's one determinism check. Each command runs twice in a fresh
    # interpreter (run_fresh), so a cold run does not vary from process to
    # process, and once in this one (run_cli), whose memos earlier tests may
    # have warmed, so a warm memo changes no byte: the exit code, stdout and
    # stderr of all three runs agree byte for byte. Two refusals, one by the
    # library and one by argparse with its usage, run once each way.
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(serialize.dumps(problem_to_obj(make_unit_problem())))
    model_path = tmp_path / "model.json"
    model_path.write_text(serialize.dumps(serialize.model_to_obj(make_string_spec(num_modes=2))))
    solution_path = tmp_path / "solution.json"
    first = run_cli("sigma", "--model", str(model_path), "--out", str(solution_path))
    assert first.returncode == 0, first.stderr

    def outcome(result):
        return result.returncode, result.stdout.encode(), result.stderr.encode()

    invocations = [
        ("eigen", "--problem", str(problem_path), "--modes", "2"),
        ("sigma", "--model", str(model_path)),
        ("action", "--solution", str(solution_path)),
        ("encode", "--occupation", "2,1"),
        ("decode", "--integer", "360"),
        ("enumerate", "--omegas", "1,2", "--quantum-I", repr(PI / 2), "--emax", "2"),
        ("qstar", "--expr", "(W+1)/W"),
    ]
    for argv in invocations:
        fresh = outcome(run_fresh(*argv))
        assert fresh[0] == 0, (argv, fresh[2])
        assert outcome(run_fresh(*argv)) == fresh, argv
        assert outcome(run_cli(*argv)) == fresh, argv
    refusals = [
        ("encode", "--occupation", "\u0661"),
        ("enumerate", "--omegas", "1,2", "--quantum-I", "1", "--emax", "\u0661"),
    ]
    for argv in refusals:
        fresh = outcome(run_fresh(*argv))
        assert fresh[0] == 2, (argv, fresh[2])
        assert outcome(run_cli(*argv)) == fresh, argv
