"""CLI contract tests: outputs, exit codes, strict parsing, byte determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import legder, legval

from conftest import make_string_spec, make_unit_problem
from eigenforge import godel, serialize, sigma_model
from eigenforge import sturm_liouville as sl
from eigenforge.errors import DomainError
from eigenforge.godel import EnumeratedState
from eigenforge.polynomials import Polynomial, poly


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "eigenforge", *args],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "dirichlet.json"
    obj = serialize.problem_to_obj(make_unit_problem())
    path.write_text(serialize.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "string.json"
    obj = serialize.model_to_obj(make_string_spec(num_modes=2))
    path.write_text(serialize.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def solution_file(tmp_path_factory, model_file):
    path = tmp_path_factory.mktemp("cli") / "solution.json"
    result = run_cli("sigma", "--model", model_file, "--out", str(path))
    assert result.returncode == 0, result.stderr
    return str(path)


class TestSerialize:
    def test_float_formatting_round_trips(self):
        for x in [math.pi, 1.0 / 3.0, 1e-300, 12345.678901234567, -0.5]:
            assert float(serialize.format_float(x)) == x

    def test_dumps_is_valid_json(self):
        obj = {"a": [1.5, 2, True], "b": {"c": None, "d": "x"}, "e": []}
        assert json.loads(serialize.dumps(obj)) == obj

    def test_poly_round_trip(self):
        p = poly([0.1, -2.5, 3.75], (-1.0, 2.0))
        obj = serialize.poly_to_obj(p)
        assert serialize.poly_from_obj(obj) == p

    def test_unknown_keys_rejected(self):
        with pytest.raises(Exception):
            serialize.poly_from_obj({"coeffs": [1.0], "interval": [0, 1], "extra": 1})

    def test_nonfinite_rejected(self):
        with pytest.raises(Exception):
            serialize.format_float(float("inf"))

    def test_ledger_object_shape(self):
        from eigenforge.action import total_energy

        ledger = total_energy(math.pi / 2, [1.0, 2.0], [2, 1])
        obj = serialize.ledger_to_obj(ledger)
        assert list(obj) == ["I", "h", "omegas", "occupations", "E_t"]
        assert obj["E_t"] == pytest.approx(4.0)
        assert json.loads(serialize.dumps(obj))["occupations"] == [2, 1]


def reference_csv(states):
    """Row-at-a-time formatter with the module's float formatting."""
    lines = ["godel_integer,occupations,energy"]
    for s in states:
        occ = ";".join(str(n) for n in s.occupations)
        lines.append(f"{s.godel},{occ},{serialize.format_float(s.energy)}")
    return "\n".join(lines) + "\n"


class TestEnumerationCsv:
    def test_two_mode_example_bytes(self):
        states = godel.enumerate_definable([1.0, 2.0], 2.0 * math.pi, 2.0)
        assert serialize.enumeration_csv(states) == (
            "godel_integer,occupations,energy\n1,,0\n2,1,1\n3,0;1,2\n4,2,2\n")

    def test_matches_reference_formatter(self):
        states = godel.enumerate_definable([0.3, 1.1, 0.7, 2.9], 2.0 * math.pi, 3.3)
        large = (0, 300, 7)
        states.append(EnumeratedState(large, godel.encode(large), 300 * math.pi + 7e-3))
        states.append(EnumeratedState((1000000,), 2, -0.0))
        text = serialize.enumeration_csv(states)
        assert text == reference_csv(states)
        assert f"{godel.encode(large)},0;300;7," in text
        assert text.endswith("\n2,1000000,-0\n")

    def test_empty(self):
        assert serialize.enumeration_csv([]) == "godel_integer,occupations,energy\n"

    @pytest.mark.parametrize("energy", [math.inf, -math.inf, math.nan])
    def test_nonfinite_energy_rejected(self, energy):
        states = [EnumeratedState((), 1, 0.0), EnumeratedState((1,), 2, energy)]
        with pytest.raises(DomainError, match="non-finite"):
            serialize.enumeration_csv(states)


class TestEigenCommand:
    def test_benchmark_output(self, problem_file):
        result = run_cli("eigen", "--problem", problem_file, "--modes", "2", "--tol", "1e-10")
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert data["modes"][0]["lambda"] == pytest.approx(math.pi**2, rel=1e-9)
        assert data["trace"][0][0] == 2
        assert data["trace"][0][1] == pytest.approx(10.0, abs=1e-12)

    def test_modes_are_legendre_series(self, problem_file):
        # "legendre" holds the coefficients of P_k(t), t = (2x - a - b)/(b - a);
        # a reader that expects monomials finds no "coeffs" key.
        result = run_cli("eigen", "--problem", problem_file, "--modes", "3")
        assert result.returncode == 0, result.stderr
        pairs, _ = sl.solve(make_unit_problem(), num_modes=3)
        xs = np.linspace(0.0, 1.0, 41)
        for mode, pair in zip(json.loads(result.stdout)["modes"], pairs, strict=True):
            assert "coeffs" not in mode
            assert np.abs(legval(2.0 * xs - 1.0, mode["legendre"])
                          - pair.u.values(xs)).max() <= 1e-12

    @pytest.mark.parametrize("bc,shift", [(sl.NEUMANN, 0.0),
                                          (sl.BoundaryCondition("value", "derivative"), 0.5)],
                             ids=["NN", "DN"])
    def test_derivative_conditions(self, tmp_path, bc, shift):
        # -u'' = lam u on (0, L): lam = (k pi / L)^2 under NN, ((k + 1/2) pi / L)^2
        # under DN; the stored series must meet both end conditions itself.
        L = 2.0
        path = tmp_path / "problem.json"
        path.write_text(serialize.dumps(serialize.problem_to_obj(make_unit_problem((0.0, L), bc))))
        result = run_cli("eigen", "--problem", str(path), "--modes", "3")
        assert result.returncode == 0, result.stderr
        for k, mode in enumerate(json.loads(result.stdout)["modes"]):
            exact = ((k + shift) * math.pi / L) ** 2
            assert abs(mode["lambda"] - exact) <= 1e-9 * (1.0 + exact)
            for t, condition in ((-1.0, bc.at_a), (1.0, bc.at_b)):
                coeffs = mode["legendre"]
                if condition == sl.VANISH_DERIVATIVE:
                    coeffs = legder(coeffs) * (2.0 / L)
                assert abs(legval(t, coeffs)) <= 1e-12

    def test_unknown_key_rejected(self, tmp_path):
        obj = serialize.problem_to_obj(make_unit_problem())
        obj["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps(obj))
        result = run_cli("eigen", "--problem", str(path))
        assert result.returncode == 2
        assert "unknown keys" in result.stderr

    def test_nonconvergence_exit_code(self, problem_file):
        result = run_cli("eigen", "--problem", problem_file, "--tol", "1e-30",
                         "--max-degree", "10")
        assert result.returncode == 3

    def test_missing_file(self):
        result = run_cli("eigen", "--problem", "/nonexistent.json")
        assert result.returncode == 2


class TestSigmaCommand:
    def test_solution_contents(self, solution_file):
        data = json.loads(Path(solution_file).read_text())
        modes = {m["label"]: m for m in data["modes"]}
        assert modes["m1"]["omega"] == pytest.approx(1.0, abs=1e-8)
        assert modes["m2"]["omega"] == pytest.approx(2.0, abs=1e-8)
        for m in modes.values():
            assert m["report"]["converged"] is True
            assert m["null_residual"] <= 1e-8
            assert m["indicial_residual"] <= 1e-10
        spectrum = data["action_spectrum"]
        assert spectrum["I"] == pytest.approx(math.pi / 2, abs=1e-7)
        assert spectrum["closure"] is True

    def test_factors_are_legendre_series(self, solution_file):
        data = json.loads(Path(solution_file).read_text())
        state, _ = sigma_model.solve_state(make_string_spec(num_modes=2), "m2", (2,),
                                           tol=1e-10, max_iter=200)
        for stored, pair in ((data["modes"][1]["space_factors"][0], state.space_factors[0]),
                             (data["modes"][1]["time_factors"][1], state.time_factors[1])):
            a, b = stored["interval"]
            xs = np.linspace(a, b, 41)
            assert "coeffs" not in stored
            assert np.abs(legval((2.0 * xs - a - b) / (b - a), stored["legendre"])
                          - pair.u.values(xs)).max() <= 1e-12


class TestActionCommand:
    def test_refit_from_solution(self, solution_file):
        result = run_cli("action", "--solution", solution_file)
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert data["multipliers"] == [1, 1]
        assert data["I"] == pytest.approx(math.pi / 2, abs=1e-7)
        assert data["h"] == pytest.approx(2 * math.pi, abs=4e-7)

    def test_refit_matches_stored_spectrum(self, solution_file):
        # The refit uses the time-pair degree and lattice tolerance of the
        # field solve, so it reproduces the stored spectrum exactly.
        stored = json.loads(Path(solution_file).read_text())
        result = run_cli("action", "--solution", solution_file)
        assert result.returncode == 0, result.stderr
        assert result.stdout == serialize.dumps(stored["action_spectrum"])
        refit = json.loads(result.stdout)
        assert [a["alpha"] for a in refit["alphas"]] == [
            m["action_alpha"] for m in stored["modes"]]

    def test_no_lattice_exit_code(self, tmp_path):
        # amplitudes 1 and 2^(1/4) give actions pi/2 and sqrt(2) pi/2
        obj = {"modes": [
            {"label": "a", "omega": 1.0, "amplitude": 1.0},
            {"label": "b", "omega": 2.0, "amplitude": 2.0 ** 0.25},
        ]}
        path = tmp_path / "incommensurable.json"
        path.write_text(serialize.dumps(obj))
        result = run_cli("action", "--solution", str(path))
        assert result.returncode == 4

    def test_unnormalized_solution_rejected(self, tmp_path):
        obj = {"modes": [{
            "label": "a", "omega": 1.0, "amplitude": 1.0,
            "space_factors": [{"lambda": 1.0, "legendre": [1.0], "interval": [0.0, 1.0],
                               "degree": 2, "norm": 0.5}],
        }]}
        path = tmp_path / "unnormalized.json"
        path.write_text(serialize.dumps(obj))
        result = run_cli("action", "--solution", str(path))
        assert result.returncode == 2


class TestCodecCommands:
    def test_encode(self):
        result = run_cli("encode", "--occupation", "2,1")
        assert result.returncode == 0
        assert result.stdout == "12\n"

    def test_encode_vacuum(self):
        result = run_cli("encode", "--occupation", "")
        assert result.stdout == "1\n"

    def test_decode(self):
        result = run_cli("decode", "--integer", "360")
        assert result.stdout == "3,2,1\n"

    def test_decode_zero_invalid(self):
        result = run_cli("decode", "--integer", "0")
        assert result.returncode == 2

    def test_decode_huge_prime_factor_invalid(self):
        result = run_cli("decode", "--integer", "1000000007")
        assert result.returncode == 2
        assert "MAX_PRIME_INDEX" in result.stderr

    def test_encode_non_canonical_invalid(self):
        result = run_cli("encode", "--occupation", "1,0")
        assert result.returncode == 2


class TestEnumerateCommand:
    def test_two_mode_example_csv(self):
        result = run_cli("enumerate", "--omegas", "1,2", "--quantum-I",
                         repr(math.pi / 2), "--emax", "2")
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "godel_integer,occupations,energy"
        godels = [int(line.split(",")[0]) for line in lines[1:]]
        assert godels == [1, 2, 3, 4]

    def test_bad_omega_rejected(self):
        result = run_cli("enumerate", "--omegas", "0", "--quantum-I", "1.0", "--emax", "1")
        assert result.returncode == 2

    @pytest.mark.parametrize("emax", ["inf", "nan"])
    def test_nonfinite_cutoff_invalid(self, emax):
        result = run_cli("enumerate", "--omegas", "1,2", "--quantum-I", "1", "--emax", emax)
        assert result.returncode == 2
        assert "e_max" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("limit,code", [(5984, 0), (5983, 2)], ids=["at-limit", "past-limit"])
    def test_state_limit(self, limit, code):
        # Three modes of energy 4 / 2pi below 20 have C(31 + 3, 3) = 5 984
        # states; the command runs with godel.MAX_STATES lowered to the limit.
        program = ("import sys; from eigenforge import cli, godel; "
                   f"godel.MAX_STATES = {limit}; sys.exit(cli.main(sys.argv[1:]))")
        result = subprocess.run(
            [sys.executable, "-c", program, "enumerate", "--omegas", "1,1,1",
             "--quantum-I", "1", "--emax", "20"], capture_output=True, text=True)
        assert result.returncode == code
        if code:
            assert result.stderr == (
                f"error: more than MAX_STATES = {limit} states below e_max = 20.0\n")
        else:
            assert len(result.stdout.splitlines()) == limit + 1

    def test_integer_size_limit(self):
        # One mode with 999 999 quanta below the cutoff: few enough states,
        # but the last Godel integer is 2^999999.
        result = subprocess.run(
            [sys.executable, "-m", "eigenforge", "enumerate", "--omegas", "1",
             "--quantum-I", repr(math.pi / 2), "--emax", "999999"],
            capture_output=True, text=True, timeout=30)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "MAX_GODEL_BITS = 4096" in result.stderr

    @pytest.mark.parametrize("emax,rows", [("0", 1), ("1", 1201)])
    def test_many_modes(self, emax, rows):
        # 1 200 modes of energy 4 / 2pi each: the descent must not recurse
        # once per mode.
        result = run_cli("enumerate", "--omegas", ",".join(["1"] * 1200), "--quantum-I", "1",
                         "--emax", emax)
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.splitlines()) == rows + 1


class TestQstarCommand:
    def test_finite_near_one(self):
        result = run_cli("qstar", "--expr", "(W+1)/W")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "(W+1)/W"
        assert lines[1] == "finite; equal to 1; not identical to 1"

    def test_reduction_shown(self):
        result = run_cli("qstar", "--expr", "(W*W-1)/(W-1)")
        assert result.stdout.splitlines()[0] == "W+1"

    def test_bad_expression(self):
        result = run_cli("qstar", "--expr", "(W")
        assert result.returncode == 2

    @pytest.mark.parametrize("expr", ["W^100000", "(" * 5000 + "W" + ")" * 5000,
                                      "((W+1)^64)^64", "*".join(["(W^3+3*W+1)/(W^2-7)"] * 50)],
                             ids=["huge-exponent", "deep-nesting", "nested-power", "long-product"])
    def test_unbounded_input_invalid(self, expr):
        result = subprocess.run([sys.executable, "-m", "eigenforge", "qstar", "--expr", expr],
                                capture_output=True, text=True, timeout=30)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


class TestDeterminism:
    def test_every_command_byte_identical_across_runs(self, problem_file, model_file,
                                                      solution_file):
        invocations = [
            ("eigen", "--problem", problem_file, "--modes", "2"),
            ("sigma", "--model", model_file),
            ("action", "--solution", solution_file),
            ("encode", "--occupation", "2,1"),
            ("decode", "--integer", "360"),
            ("enumerate", "--omegas", "1,2", "--quantum-I", repr(math.pi / 2),
             "--emax", "2"),
            ("qstar", "--expr", "(W+1)/W"),
        ]
        for argv in invocations:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first.returncode == 0, (argv, first.stderr)
            assert first.returncode == second.returncode
            assert first.stdout.encode() == second.stdout.encode(), argv
