"""CLI contract tests: outputs, exit codes, strict parsing, byte determinism.

A test runs its command with ``run_cli``, in this process, so a run reads the
memos, the values kept on objects and the prime table that earlier tests
warmed. It calls ``run_fresh`` by name for one of two needs: a hang guard,
whose timeout ends the fresh process so a hang fails the test, or the cold
runs of ``TestDeterminism``, whose files must hold the bytes of warm runs in
this process. A warm memo must not change a byte: ``TestDeterminism``
compares cold and warm runs, criterion 9 of ``test_acceptance.py`` compares
fresh and in-process runs of every subcommand, and CI runs the suite a
second time in reverse file order.
"""

import argparse
import collections
import hashlib
import inspect
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import legder, legval

from conftest import (
    NEUMANN,
    coupled_spec,
    make_string_spec,
    make_unit_problem,
    problem_to_obj,
    run_cli,
    run_fresh,
)
from eigenforge import action as action_mod
from eigenforge import cli, godel, serialize, sigma_model
from eigenforge import sturm_liouville as sl
from eigenforge.errors import DomainError, echo
from eigenforge.godel import DefinableStates
from eigenforge.polynomials import Polynomial, poly


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "dirichlet.json"
    obj = problem_to_obj(make_unit_problem())
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


@pytest.fixture(scope="module")
def coupled_solution_file(tmp_path_factory):
    """The three-mode string under quadratic coupling g = 0.01, the model
    ``scripts/run_string_pipeline.py --coupling 0.01`` writes."""
    directory = tmp_path_factory.mktemp("cli")
    model = directory / "coupled.json"
    model.write_text(serialize.dumps(serialize.model_to_obj(make_string_spec(coupling_g=0.01))))
    path = directory / "coupled_solution.json"
    result = run_cli("sigma", "--model", str(model), "--out", str(path))
    assert result.returncode == 0, result.stderr
    return str(path)


def set_at(obj, path, value):
    """Set the node of a JSON document that a path of keys and indices leads to."""
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def foreign_nodes(node, path="$"):
    """(path, type name) of every node that is neither an exact float, int,
    bool or str leaf nor an exact dict or list."""
    kind = type(node)
    if kind is dict:
        children = [(f"{path}.{k}", v) for k, v in node.items()]
    elif kind is list:
        children = [(f"{path}[{i}]", v) for i, v in enumerate(node)]
    else:
        return [] if kind in (float, int, bool, str) else [(path, kind.__name__)]
    return [bad for child_path, v in children for bad in foreign_nodes(v, child_path)]


def test_defaults_equal_the_library_defaults():
    # eigen and sigma restate the solvers' defaults as their own literals;
    # the parser's defaults must stay those of the signatures.
    parser = cli._build_parser()
    eigen = parser.parse_args(["eigen", "--problem", "problem.json"])
    sigma = parser.parse_args(["sigma", "--model", "model.json"])
    solve = inspect.signature(sl.solve).parameters
    solve_state = inspect.signature(sigma_model.solve_state).parameters
    pairs = {"eigen --modes": (eigen.modes, solve["num_modes"]),
             "eigen --tol": (eigen.tol, solve["k_tol"]),
             "eigen --max-degree": (eigen.max_degree, solve["max_degree"]),
             "sigma --tol": (sigma.tol, solve_state["tol"]),
             "sigma --max-iter": (sigma.max_iter, solve_state["max_iter"])}
    for option, (default, param) in pairs.items():
        assert (type(default), default) == (type(param.default), param.default), option


@pytest.mark.parametrize("text", [
    "+3", " 2 ", "\t-7\n", "007", "1e-10", "1E+2", "3.", ".5", "1.5", "inf", "-Infinity",
    "+nan", "NaN", "x", "", " ", ".", "1e", "e5", "--3", "0x10", "1 2", "1_0", "_1",
    "\u0661", "\uff11", "1\u0662", "\u0663.\u0665", "\u20032", "\uff49nf", "1" * 3000,
], ids=lambda text: repr(text)[:12])
def test_one_ascii_number_notation(text):
    # An ASCII text without an underscore reads as Python's int() and float()
    # read it, and is refused with argparse's words for type=int and
    # type=float where they refuse it; any other digit, an underscore and
    # non-ASCII whitespace are refused. A refusal echoes the text.
    for reader, kind in ((cli.integer, int), (cli.number, float)):
        try:
            expected = kind(text) if text.isascii() and "_" not in text else None
        except ValueError:
            expected = None
        if expected is None:
            with pytest.raises(argparse.ArgumentTypeError) as refusal:
                reader(text)
            assert str(refusal.value) == f"invalid {kind.__name__} value: {echo(text)}"
        else:
            assert repr(reader(text)) == repr(expected)


class TestSerialize:
    def test_float_formatting_round_trips(self):
        for x in [math.pi, 1.0 / 3.0, 1e-300, 12345.678901234567, -0.5]:
            assert float(serialize.format_float(x)) == x

    def test_dumps_is_valid_json(self):
        obj = {"a": [1.5, 2, True], "b": {"c": False, "d": "x"}, "e": []}
        assert json.loads(serialize.dumps(obj)) == obj
        # No library document holds a None: it is refused, not written as null.
        with pytest.raises(DomainError, match="^cannot serialize NoneType$"):
            serialize.dumps({"b": {"c": None, "d": "x"}})

    def test_dumps_exact_text(self):
        # Number lists go on one line; a bool among numbers forces one item
        # per line; empty containers stay inline.
        obj = {"inline": [2**70, -3, 0.1, 1e-300], "mixed": [1.5, True, False],
               "empty_list": [], "empty_dict": {}, "nested": [[1, 2.5], {"k": "v"}]}
        assert serialize.dumps(obj) == (
            '{\n'
            '  "inline": [1180591620717411303424, -3, 0.10000000000000001, 1e-300],\n'
            '  "mixed": [\n'
            '    1.5,\n'
            '    true,\n'
            '    false\n'
            '  ],\n'
            '  "empty_list": [],\n'
            '  "empty_dict": {},\n'
            '  "nested": [\n'
            '    [1, 2.5],\n'
            '    {\n'
            '      "k": "v"\n'
            '    }\n'
            '  ]\n'
            '}\n'
        )
        for bad in ([1.0, math.inf], [math.nan], {"a": [True, -math.inf]}):
            with pytest.raises(DomainError, match="non-finite"):
                serialize.dumps(bad)
        with pytest.raises(DomainError, match="^cannot serialize NoneType$"):
            serialize.dumps({"mixed": [1.5, True, None]})

    # An array of exact floats whose sum is finite is rendered in one pass;
    # [1e308, 1e308] overflows the sum and takes the per-element path. Both
    # must give format(x, ".17g") for every element.
    @pytest.mark.parametrize("values", [[-0.0], [5e-324], [0.1], [1e17],
                                        [-0.0, 5e-324, 0.1, 1e17], [1e308, 1e308]],
                             ids=["minus-zero", "subnormal", "tenth", "1e17", "all", "overflow"])
    def test_float_array_bytes(self, values):
        want = "[" + ", ".join(format(x, ".17g") for x in values) + "]\n"
        assert serialize.dumps(values) == want
        assert serialize.dumps(tuple(values)) == want

    # A numpy scalar is no exact float: it is refused by its type name,
    # finite or not.
    @pytest.mark.parametrize("values,message", [
        ([1.0, math.nan, math.inf], "non-finite number nan"),
        ([math.inf, -math.inf], "non-finite number inf"),
        ([1e308, 1e308, -math.inf], "non-finite number -inf"),
        ([0.5, np.float64("nan")], "float64"),
    ], ids=["nan-first", "inf-first", "after-overflow", "numpy-nan"])
    def test_nonfinite_array_names_the_first(self, values, message):
        with pytest.raises(DomainError, match=f"^cannot serialize {re.escape(message)}$"):
            serialize.dumps(values)

    # A Ritz trace entry [degree, value] takes one format call; it must give
    # the per-element bytes, str(n) and format(x, ".17g"), list or tuple.
    @pytest.mark.parametrize("pair", [[2, -0.0], [40, 5e-324], [2**70, 0.1], [-3, 1e17]],
                             ids=["minus-zero", "subnormal", "big-int", "1e17"])
    def test_trace_pair_bytes(self, pair):
        want = f"[{pair[0]}, {format(pair[1], '.17g')}]\n"
        assert serialize.dumps(pair) == want
        assert serialize.dumps(tuple(pair)) == want
        assert serialize.dumps([pair]) == "[\n  " + want[:-1] + "\n]\n"

    def test_trace_pair_look_alikes_keep_their_bytes(self):
        # A bool is no degree and a float first no trace entry; a numpy
        # scalar is refused, and a non-finite value is refused by name, as on
        # the per-element path.
        assert serialize.dumps([True, 0.5]) == "[\n  true,\n  0.5\n]\n"
        assert serialize.dumps([0.5, 2]) == "[0.5, 2]\n"
        with pytest.raises(DomainError, match="^cannot serialize float64$"):
            serialize.dumps([2, np.float64(0.1)])
        for bad, first in (([4, math.inf], "inf"), ([4, math.nan], "nan")):
            with pytest.raises(DomainError,
                               match=f"^cannot serialize non-finite number {first}$"):
                serialize.dumps(bad)

    def test_arrays_not_all_float_keep_their_bytes(self):
        assert serialize.dumps([True, 1.5]) == "[\n  true,\n  1.5\n]\n"
        assert serialize.dumps([0.1, 2.0, 3]) == "[0.10000000000000001, 2, 3]\n"
        assert serialize.dumps((1e17, 2**70, -0.0)) == "[1e+17, 1180591620717411303424, -0]\n"
        # Arrays accept the types scalars do: a numpy scalar is refused in
        # either place.
        for bad in ([np.float64(0.1), 2.0, 3], (np.float64(1e17), 2**70, -0.0), np.float64(1.0),
                    [np.int64(2), 0.5]):
            with pytest.raises(DomainError, match=r"^cannot serialize (float|int)64$"):
                serialize.dumps(bad)

    @pytest.mark.parametrize("value", [
        None, np.float64(0.5), np.int64(2), np.bool_(True), {1, 2}, b"x",
        collections.OrderedDict(a=1.0), type("Floats", (list,), {})([0.5]),
    ], ids=["none", "np-float", "np-int", "np-bool", "set", "bytes", "dict-subclass",
            "list-subclass"])
    def test_other_types_refused_by_name(self, value):
        message = f"^cannot serialize {type(value).__name__}$"
        for obj in (value, {"x": [1.0, value]}):
            with pytest.raises(DomainError, match=message):
                serialize.dumps(obj)

    def test_documents_hold_only_rendered_types(self):
        # dumps renders exact types only: every document the library builds
        # must hold nothing else, for a variable-coefficient eigenproblem, the
        # string model linear and coupled, and a coupled 2-D box.
        pairs, trace = sl.solve(serialize.problem_from_obj(json.loads(MIXED_PROBLEM)),
                                num_modes=3)
        documents = [serialize.solution_to_obj(pairs, trace)]
        specs = [make_string_spec(0.0), make_string_spec(0.05),
                 serialize.model_from_obj(json.loads(BOX_MODEL))]
        for spec in specs:
            labels, alphas = [], []
            for mode in spec.modes:
                state, report = sigma_model.solve_state(spec, mode.label, mode.targets)
                alpha = action_mod.action_for_state(state)
                documents.append(serialize.state_to_obj(
                    state, report, sigma_model.null_postulate_residual(spec, state), alpha,
                    mode.targets))
                labels.append(mode.label)
                alphas.append(alpha)
            spectrum = action_mod.fit_spectrum(labels, alphas)
            documents.append(serialize.spectrum_to_obj(
                spectrum, action_mod.closure_check(alphas, spectrum.quantum)))
            documents.append(serialize.model_to_obj(spec))
        for document in documents:
            assert foreign_nodes(document) == []
            assert json.loads(serialize.dumps(document)) == document

    def test_keys_and_strings_quoted_as_json_dumps(self):
        obj = {'a"b': "λ", "λ": 'a"b'}
        assert serialize.dumps(obj) == (
            "{\n  " + json.dumps('a"b') + ": " + json.dumps("λ") + ",\n  "
            + json.dumps("λ") + ": " + json.dumps('a"b') + "\n}\n")
        assert serialize.dumps(obj) == '{\n  "a\\"b": "\\u03bb",\n  "\\u03bb": "a\\"b"\n}\n'

    def test_poly_round_trip(self):
        p = poly([0.1, -2.5, 3.75], (-1.0, 2.0))
        obj = serialize.poly_to_obj(p)
        assert serialize.poly_from_obj(obj) == p

    def test_unknown_keys_rejected(self):
        with pytest.raises(Exception):
            serialize.poly_from_obj({"coeffs": [1.0], "interval": [0, 1], "extra": 1})

    def test_degree_cap_counts_trimmed_coefficients(self):
        # Degree 64 is read; degree 65 is refused by its field, and trailing
        # zeros do not count.
        ones = [1.0] * 65
        kept = serialize.poly_from_obj({"coeffs": ones + [0.0] * 10, "interval": [0, 1]})
        assert kept.degree == 64
        with pytest.raises(DomainError, match=r"^p\.coeffs has degree 65, above the cap 64$"):
            serialize.poly_from_obj({"coeffs": ones + [1.0], "interval": [0, 1]}, "p")

    def test_nonfinite_rejected(self):
        with pytest.raises(Exception):
            serialize.format_float(float("inf"))


def reference_csv(states):
    """Row-at-a-time formatter with the module's float formatting."""
    lines = ["godel_integer,occupations,energy"]
    for s in states:
        occ = ";".join(str(n) for n in s.occupations)
        lines.append(f"{s.godel},{occ},{serialize.format_float(float(s[2]))}")
    return "\n".join(lines) + "\n"


class TestEnumerationCsv:
    def test_two_mode_example_bytes(self):
        states = godel.enumerate_definable([1.0, 2.0], 2.0 * math.pi, 2.0)
        assert serialize.enumeration_csv(states) == (
            "godel_integer,occupations,energy\n1,,0\n2,1,1\n3,0;1,2\n4,2,2\n")

    def test_view_and_list_write_one_csv(self):
        # The enumeration's view and one built by hand over the same rows go
        # through the one formatter.
        states = godel.enumerate_definable([1.0, 2.0], 2.0 * math.pi, 2.0)
        by_hand = DefinableStates(((1, "", "0"), (2, "1", "1"), (3, "0;1", "2"), (4, "2", "2")))
        assert (serialize.enumeration_csv(states) == serialize.enumeration_csv(by_hand)
                == reference_csv(states) == reference_csv(by_hand))

    def test_matches_reference_formatter(self):
        rows = godel.enumerate_definable([0.3, 1.1, 0.7, 2.9], 2.0 * math.pi, 3.3).rows
        large = (0, 300, 7)
        states = DefinableStates(rows + (
            (godel.encode(large), "0;300;7", serialize.format_float(300 * math.pi + 7e-3)),
            (2, "1000000", serialize.format_float(-0.0))))
        text = serialize.enumeration_csv(states)
        assert text == reference_csv(states)
        assert f"{godel.encode(large)},0;300;7," in text
        assert text.endswith("\n2,1000000,-0\n")

    @pytest.mark.parametrize("omegas, e_max", [([0.3, 1.1, 0.7, 2.9], 3.3), ([1.0], 300.0)])
    def test_descent_text_matches_reference(self, omegas, e_max):
        # The occupation text is built in the descent; the reference formats
        # each row from the parsed occupations.
        states = godel.enumerate_definable(omegas, 2.0 * math.pi, e_max)
        assert serialize.enumeration_csv(states) == reference_csv(states)
        assert all(godel.encode(s.occupations) == s.godel for s in states)
        if len(omegas) == 1:
            assert states[-1][1] == "300"
        else:  # interior zeros and two-digit counts
            assert {"0;0;1", "1;0;0;1", "11"} <= {s[1] for s in states}

    def test_degenerate_spectrum_shares_energy_texts(self):
        # Box modes m pi / L: every energy is a multiple of one quantum, so
        # many states share an energy, and those states share one text object.
        omegas = [m * math.pi / 4.0 for m in range(1, 7)]
        states = godel.enumerate_definable(omegas, 2.0 * math.pi, 12.0)
        by_energy = {}
        for s in states:
            by_energy.setdefault(float(s[2]), []).append(s[2])
        assert len(by_energy) < len(states) // 10
        for texts in by_energy.values():
            assert all(text is texts[0] for text in texts)
        assert states[0][2] == "0"
        assert serialize.enumeration_csv(states) == reference_csv(states)

    def test_non_degenerate_spectrum_round_trips(self):
        omegas, h, e_max = [1.0, math.sqrt(2.0), math.sqrt(3.0), math.pi / 2.0], 2.0, 9.0
        states = godel.enumerate_definable(omegas, h, e_max)
        assert len({s[2] for s in states}) == len(states) > 100
        assert serialize.enumeration_csv(states) == reference_csv(states)
        steps = godel.mode_energies(omegas, h)
        for s in states:
            energy = 0.0  # the descent's sum, in mode order
            for n, step in zip(s.occupations, steps):
                energy += n * step
            assert float(s[2]) == energy
            assert s[2] == serialize.format_float(energy)

    def test_empty(self):
        assert serialize.enumeration_csv(DefinableStates(())) == (
            "godel_integer,occupations,energy\n")


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

    @pytest.mark.parametrize("bc,shift", [(NEUMANN, 0.0),
                                          (sl.BoundaryCondition("value", "derivative"), 0.5)],
                             ids=["NN", "DN"])
    def test_derivative_conditions(self, tmp_path, bc, shift):
        # -u'' = lam u on (0, L): lam = (k pi / L)^2 under NN, ((k + 1/2) pi / L)^2
        # under DN; the stored series must meet both end conditions itself.
        L = 2.0
        path = tmp_path / "problem.json"
        path.write_text(serialize.dumps(problem_to_obj(make_unit_problem((0.0, L), bc))))
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

    def test_missing_key_invalid(self, tmp_path):
        obj = problem_to_obj(make_unit_problem())
        del obj["r"]
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps(obj))
        result = run_cli("eigen", "--problem", str(path))
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "error: problem is missing keys ['r']\n")

    def test_unknown_key_rejected(self, tmp_path):
        obj = problem_to_obj(make_unit_problem())
        obj["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps(obj))
        result = run_cli("eigen", "--problem", str(path))
        assert result.returncode == 2
        assert "unknown keys" in result.stderr

    @pytest.mark.parametrize("value", [True, "1", None, 10**400],
                             ids=["bool", "string", "null", "400-digit-integer"])
    def test_wrong_coefficient_type_invalid(self, tmp_path, value):
        obj = problem_to_obj(make_unit_problem())
        obj["p"]["coeffs"][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        result = run_fresh("eigen", "--problem", str(path), timeout=10)
        assert result.returncode == 2
        assert "problem.p.coeffs[0] must be a finite number" in result.stderr

    def test_empty_coefficients_invalid(self, tmp_path):
        # An empty array is no polynomial; it must not read as zero.
        obj = problem_to_obj(make_unit_problem())
        obj["q"]["coeffs"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        result = run_cli("eigen", "--problem", str(path), "--out", str(tmp_path / "out.json"))
        assert result.returncode == 2
        assert "problem.q.coeffs must be a non-empty array" in result.stderr
        assert not (tmp_path / "out.json").exists()

    def test_degree_above_the_cap_invalid(self, tmp_path):
        # p = 1 + x^1000 used to reach the positivity check, whose root-finding
        # overflowed with numpy warnings and no field named.
        obj = problem_to_obj(make_unit_problem())
        obj["p"]["coeffs"] = [1.0] + [0.0] * 999 + [1.0]
        path = tmp_path / "high.json"
        path.write_text(json.dumps(obj))
        result = run_cli("eigen", "--problem", str(path))
        assert result.returncode == 2
        assert "problem.p.coeffs has degree 1000" in result.stderr
        assert "Warning" not in result.stderr

    def test_max_degree_above_the_cap_invalid(self, problem_file):
        result = run_cli("eigen", "--problem", problem_file, "--max-degree", "65")
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "error: max_degree 65 exceeds the polynomial degree cap 64\n")

    def test_nonconvergence_exit_code(self, problem_file):
        result = run_cli("eigen", "--problem", problem_file, "--tol", "1e-30",
                         "--max-degree", "10")
        assert result.returncode == 3

    def test_missing_file(self):
        result = run_cli("eigen", "--problem", "/nonexistent.json")
        assert result.returncode == 2

    def test_weight_dipping_between_samples_invalid(self, tmp_path):
        # r = (x - 0.3001)^2 - 1e-8 is negative only near x = 0.3001.
        obj = problem_to_obj(make_unit_problem())
        obj["r"]["coeffs"] = [0.3001 ** 2 - 1e-8, -0.6002, 1.0]
        path = tmp_path / "dip.json"
        path.write_text(json.dumps(obj))
        result = run_fresh("eigen", "--problem", str(path), timeout=10)
        assert result.returncode == 2
        assert "r must be positive on [0.0, 1.0]" in result.stderr

    def test_failed_eigensolve_exit_code(self, tmp_path):
        # On [0, 1e-300] the reduced pencil overflows: a numerical failure
        # (exit 3), not invalid input, named in one line with no numpy warning.
        obj = problem_to_obj(make_unit_problem())
        for name in ("p", "q", "r"):
            obj[name]["interval"] = [0.0, 1e-300]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(obj))
        result = run_fresh("eigen", "--problem", str(path), timeout=10)
        assert result.returncode == 3
        [line] = result.stderr.splitlines()
        assert line.startswith("error: reduced eigenproblem")

    def test_interval_of_overflowing_length_invalid(self, tmp_path):
        # b - a of [-1e308, 1e308] is inf: the problem is refused when read,
        # where a solve would scale its norms by inf and print a zero function.
        obj = problem_to_obj(make_unit_problem())
        for name in ("p", "q", "r"):
            obj[name]["interval"] = [-1e308, 1e308]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(obj))
        result = run_cli("eigen", "--problem", str(path))
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "error: the length of the interval (-1e+308, 1e+308) overflows\n")

    def test_subnormal_interval_exit_code(self, tmp_path):
        # On [0, 1e-320] a variable p's stiffness matrix holds NaN and the
        # mass matrix underflows: exit 3 with the one error line, no warning.
        obj = problem_to_obj(make_unit_problem())
        obj["p"]["coeffs"] = [1.0, 1.0]
        for name in ("p", "q", "r"):
            obj[name]["interval"] = [0.0, 1e-320]
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(obj))
        result = run_fresh("eigen", "--problem", str(path), timeout=10)
        assert result.returncode == 3
        assert result.stderr == "error: mass matrix is numerically indefinite\n"

    @pytest.mark.parametrize("coeffs,code,message", [
        ({"r": [1e308]}, 3, "error: mass matrix is not finite: its assembly overflows"),
        ({"q": [1e308], "r": [1e-10]}, 3,
         "error: reduced eigenproblem of size 1 is not finite: its reduction overflows"),
        ({"p": [1e308, 1e308]}, 2, "error: p is not finite on [0.0, 1.0]"),
        ({"p": [1.0] + [0.0] * 63 + [1e308]}, 2, "error: p is not finite on [0.0, 1.0]"),
    ], ids=["r-high", "q-high", "p-high", "p-steep"])
    def test_overflowing_coefficients_one_error_line(self, tmp_path, coeffs, code, message):
        # p = 1 + x (or 1e308 (1 + x), or 1 + 1e308 x^64, whose derivative's
        # coefficients overflow) on [0, 1] with coefficients near the float
        # range: one error line naming the overflow, and no numpy warning
        # (the run turns warnings into errors).
        obj = problem_to_obj(make_unit_problem())
        obj["p"]["coeffs"] = [1.0, 1.0]
        for name, values in coeffs.items():
            obj[name]["coeffs"] = values
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        result = run_fresh("eigen", "--problem", str(path), timeout=10)
        assert result.returncode == code
        assert result.stderr.splitlines() == [message]

    def test_library_defect_is_not_invalid_input(self, monkeypatch):
        # Only the library's own errors, ValueError and OSError are invalid
        # input; anything else is a defect and propagates with its traceback.
        def broken(args):
            raise KeyError("bug")
        monkeypatch.setattr(cli, "_cmd_encode", broken)
        with pytest.raises(KeyError):
            cli.main(["encode", "--occupation", "1"])

    @pytest.mark.parametrize("flags", [("--modes", "38"), ("--max-degree", "3")],
                             ids=["modes-38", "max-degree-3"])
    def test_request_the_stop_test_cannot_meet_invalid(self, problem_file, flags):
        result = run_cli("eigen", "--problem", problem_file, *flags)
        assert result.returncode == 2
        assert "need max_degree >=" in result.stderr

    def test_interval_off_zero(self, tmp_path):
        # The affine map of the Chebyshev points rounds an end of the
        # positivity samples an ulp outside this interval.
        obj = problem_to_obj(make_unit_problem())
        for name in ("p", "q", "r"):
            obj[name]["interval"] = [-2.0, -1.8]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj))
        for modes in ("1", "2"):
            result = run_cli("eigen", "--problem", str(path), "--modes", modes)
            assert result.returncode == 0, result.stderr
            for k, mode in enumerate(json.loads(result.stdout)["modes"], start=1):
                exact = (k * math.pi / 0.2) ** 2
                assert abs(mode["lambda"] - exact) <= 1e-12 * exact, (modes, k)

    def test_positivity_is_free_of_scale(self, tmp_path, capsys):
        # p = r = 1e-13 on [0, 1] has lambda_1 = pi^2, as at unit scale: the
        # positivity margin is relative to the largest |f|.
        obj = problem_to_obj(make_unit_problem())
        obj["p"]["coeffs"] = obj["r"]["coeffs"] = [1e-13]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["eigen", "--problem", str(path)]) == 0
        lam = json.loads(capsys.readouterr().out)["modes"][0]["lambda"]
        assert abs(lam - math.pi ** 2) <= 1e-12 * math.pi ** 2


class TestSigmaCommand:
    def test_zero_frequency_state_invalid(self, tmp_path):
        # The Neumann ground state of the coupled string has omega^2 = 0 to
        # rounding: refused as invalid input, and said so, whichever way it
        # rounds (down at g = 0.05, up to +1.7e-16 at g = -0.5).
        for coupling_g in (0.05, -0.5):
            obj = serialize.model_to_obj(make_string_spec(coupling_g=coupling_g, num_modes=1))
            obj["space_dims"][0]["bc"] = {"a": "derivative", "b": "derivative"}
            path = tmp_path / "model.json"
            path.write_text(serialize.dumps(obj))
            result = run_cli("sigma", "--model", str(path))
            assert result.returncode == 2, coupling_g
            assert "vanishes to rounding" in result.stderr
            assert "a zero-frequency state" in result.stderr

    @pytest.mark.parametrize("interval", [[0.0, math.pi, 99], 5], ids=["three-elements", "number"])
    def test_bad_dimension_interval_invalid(self, tmp_path, interval):
        obj = serialize.model_to_obj(make_string_spec(num_modes=1))
        obj["space_dims"][0]["interval"] = interval
        path = tmp_path / "model.json"
        path.write_text(serialize.dumps(obj))
        result = run_cli("sigma", "--model", str(path))
        assert result.returncode == 2
        assert "model.space_dims[0].interval must be a two-element array" in result.stderr

    # Each edit puts a value of the wrong JSON type into one field of the
    # string model; the message must name that field's path.
    @pytest.mark.parametrize("path,value,message", [
        (("modes", 0, "targets"), "2", "model.modes[0].targets must be an array"),
        (("modes", 0, "targets", 0), 1.9, "model.modes[0].targets[0] must be an integer"),
        (("modes", 0, "targets", 0), True, "model.modes[0].targets[0] must be an integer"),
        (("modes", 0, "targets", 0), "1", "model.modes[0].targets[0] must be an integer"),
        (("modes", 0, "label"), 1, "model.modes[0].label must be a string"),
        (("components",), 2.7, "model.components must be an integer"),
        (("components",), True, "model.components must be an integer"),
        (("space_dims", 0, "r", "coeffs"), "1", "model.space_dims[0].r.coeffs must be an array"),
        (("P", "terms", 0, 1, "coeffs", 0), "1",
         "model.P.terms[0][1].coeffs[0] must be a finite number"),
        (("P", "terms", 0, 0, "coeffs", 0), math.nan,
         "model.P.terms[0][0].coeffs[0] must be a finite number"),
        (("Q", "coupling_g"), True, "model.Q.coupling_g must be a finite number"),
        (("Q", "coupling_g"), "0.01", "model.Q.coupling_g must be a finite number"),
        (("space_dims", 0, "interval", 1), "3.14",
         "model.space_dims[0].interval[1] must be a finite number"),
        (("time_dim", "r", "interval", 0), False,
         "model.time_dim.r.interval[0] must be a finite number"),
        (("P", "terms"), 5, "model.P.terms must be an array"),
        (("P", "terms"), "ab", "model.P.terms must be an array"),
        (("Q", "terms"), [5], "model.Q.terms[0] must be an array"),
        (("space_dims",), 5, "model.space_dims must be an array"),
        (("modes",), 5, "model.modes must be an array"),
        (("space_dims", 0, "bc", "a"), ["value"], "model.space_dims[0].bc.a must be one of"),
        (("Q", "terms"), [[{"coeffs": [], "interval": [0.0, math.pi]},
                           {"coeffs": [1.0], "interval": [0.0, math.pi / 2]}]],
         "model.Q.terms[0][0].coeffs must be a non-empty array"),
    ], ids=["targets-string", "target-float", "target-bool", "target-string", "label-number",
            "components-float", "components-bool", "coeffs-string", "coeff-string", "coeff-nan",
            "coupling-bool", "coupling-string", "interval-string", "interval-bool",
            "terms-number", "terms-string", "term-number", "space-dims-number", "modes-number",
            "bc-array", "coeffs-empty"])
    def test_wrong_json_type_invalid(self, tmp_path, path, value, message):
        obj = serialize.model_to_obj(make_string_spec(num_modes=1))
        set_at(obj, path, value)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        result = run_cli("sigma", "--model", str(model))
        assert result.returncode == 2
        assert message in result.stderr

    # Checks made when the model is built, before any solve. Each edit sets
    # the values at the given paths of the string model.
    @pytest.mark.parametrize("edits,message", [
        ({("P", "terms", 0, 0, "interval"): [0.0, 3.0]}, "P term 0 factor 0 lives on (0.0, 3.0)"),
        ({("time_dim", "interval"): [0.0, 1.5], ("time_dim", "r", "interval"): [0.0, 1.5],
          ("P", "terms", 0, 1, "interval"): [0.0, 1.5]}, "time_dim interval must be"),
        ({("components",): 10**9}, "components must be between 1 and 256"),
        ({("modes",): []}, "error: model declares no modes to solve"),
        ({("P", "terms", 0): [{"coeffs": [1.0], "interval": [0.0, math.pi]}]},
         "error: every P term needs one factor per dimension (2)"),
    ], ids=["term-interval", "time-interval", "components", "no-modes", "p-term-one-factor"])
    def test_model_checked_when_built(self, tmp_path, edits, message):
        obj = serialize.model_to_obj(make_string_spec(num_modes=1))
        for path, value in edits.items():
            set_at(obj, path, value)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        result = run_cli("sigma", "--model", str(model))
        assert result.returncode == 2
        assert message in result.stderr

    # A dimension weight that is not positive on its interval is refused when
    # the model is read, naming the field; [1.0, -0.9] is positive at 0 only.
    @pytest.mark.parametrize("weight", [[-1.0], [0.0], [1.0, -0.9]],
                             ids=["negative", "zero", "turns-negative"])
    @pytest.mark.parametrize("dim,where", [(("space_dims", 0), "space_dims[0].r"),
                                           (("time_dim",), "time_dim.r")], ids=["space", "time"])
    def test_weight_not_positive_invalid(self, tmp_path, dim, where, weight):
        obj = serialize.model_to_obj(make_string_spec(num_modes=1))
        set_at(obj, (*dim, "r", "coeffs"), weight)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        result = run_cli("sigma", "--model", str(model), "--out", str(tmp_path / "out.json"))
        assert result.returncode == 2
        assert f"{where} must be positive" in result.stderr
        assert not (tmp_path / "out.json").exists()

    def test_weight_above_the_degree_cap_invalid(self, tmp_path):
        obj = serialize.model_to_obj(make_string_spec(num_modes=1))
        obj["space_dims"][0]["r"]["coeffs"] = [1.0] * 71
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        result = run_cli("sigma", "--model", str(model))
        assert result.returncode == 2
        assert "model.space_dims[0].r.coeffs has degree 70" in result.stderr
        assert "Warning" not in result.stderr

    @pytest.mark.parametrize("targets,where", [([1, 38], "modes[0].targets[1] is 38"),
                                               ([38, 1], "modes[0].targets[0] is 38")],
                             ids=["second", "first"])
    def test_target_above_the_degree_cap_invalid(self, tmp_path, targets, where):
        # A 2-D string model; its eigensolves are capped at degree 40, which
        # can track mode 37 at most.
        obj = serialize.model_to_obj(make_string_spec(num_modes=1))
        obj["space_dims"].append(obj["space_dims"][0])
        obj["P"]["terms"][0].insert(0, obj["P"]["terms"][0][0])
        obj["modes"] = [{"label": "m", "targets": targets}]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        result = run_cli("sigma", "--model", str(model))
        assert result.returncode == 2
        assert where in result.stderr
        assert "max_degree" not in result.stderr

    # A bad second mode is refused before the first one is solved, and the
    # message names it.
    @pytest.mark.parametrize("targets,where", [
        ([1, 2], "modes[1].targets: need one target mode per space dimension (1)"),
        ([0], "modes[1].targets[0] is 0; target modes are 1-based"),
        ([-3], "modes[1].targets[0] is -3; target modes are 1-based"),
    ], ids=["count", "zero", "negative"])
    def test_bad_target_of_a_later_mode_invalid(self, tmp_path, targets, where):
        obj = serialize.model_to_obj(make_string_spec(num_modes=1))
        obj["modes"].append({"label": "bad", "targets": targets})
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        result = run_cli("sigma", "--model", str(model))
        assert result.returncode == 2
        assert where in result.stderr

    def test_interval_off_zero(self, tmp_path):
        # The affine map of the Chebyshev points rounds an end of the
        # positivity samples an ulp outside this interval.
        obj = serialize.model_to_obj(make_string_spec(num_modes=2))
        obj["space_dims"][0]["interval"] = [1.0, 3.1]
        obj["space_dims"][0]["r"]["interval"] = [1.0, 3.1]
        obj["P"]["terms"][0][0]["interval"] = [1.0, 3.1]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        result = run_cli("sigma", "--model", str(model))
        assert result.returncode == 0, result.stderr
        for k, mode in enumerate(json.loads(result.stdout)["modes"], start=1):
            exact = k * math.pi / 2.1
            assert abs(mode["omega"] - exact) <= 1e-12 * exact

    def test_capped_eigensolve_names_the_mode(self, tmp_path):
        # The Dirichlet string on (0, 2.1) at g = 10: the ground mode
        # converges, mode 3's eigensolve reaches degree 40. The one error
        # line names that mode, its dimension and sweep.
        spec = replace(coupled_spec((2.1,), (sl.DIRICHLET,), 10.0),
                       modes=(sigma_model.ModeSpec("ground", (1,)),
                              sigma_model.ModeSpec("third", (3,))))
        model = tmp_path / "model.json"
        model.write_text(serialize.dumps(serialize.model_to_obj(spec)))
        result = run_cli("sigma", "--model", str(model))
        assert result.returncode == 3
        assert result.stderr.splitlines() == [
            "error: state 'third', space dimension 0, sweep 2: "
            "eigenvalues not converged to 1e-12 within degree 40"]

    def test_refused_problem_names_the_mode(self, tmp_path):
        # P's coupling of -2 takes p below zero in sweep 1: invalid input,
        # in one error line that names the mode, its dimension and sweep.
        spec = make_string_spec(num_modes=1)
        spec = replace(spec, P=replace(spec.P, coupling_g=-2.0))
        model = tmp_path / "model.json"
        model.write_text(serialize.dumps(serialize.model_to_obj(spec)))
        result = run_cli("sigma", "--model", str(model))
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: state 'm1', space dimension 0, sweep 1: "
            "p must be positive on [0.0, 3.141592653589793]"]

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

    @pytest.mark.parametrize("edits,argv,fragment", [
        ({"modes": [{"label": "m", "targets": [10**3000]}]}, [], "can track at most mode 37"),
        ({"components": 10**3000}, [], "components must be between 1 and 256"),
        ({}, ["--max-iter", "1" * 3001], "max_iter must be at least 1 and at most MAX_SWEEPS"),
        (None, ["--modes", "1" * 3001], "num_modes must be at most 61, the most modes"),
        (None, ["--max-degree", "1" * 3001], "exceeds the polynomial degree cap 64"),
    ], ids=["target", "components", "max-iter", "eigen-modes", "eigen-max-degree"])
    def test_huge_integer_shown_by_its_digits(self, tmp_path, problem_file, edits, argv,
                                              fragment):
        # A model edited by ``edits`` for sigma, else the unit problem for eigen.
        if edits is None:
            result = run_cli("eigen", "--problem", problem_file, *argv)
        else:
            obj = serialize.model_to_obj(make_string_spec(num_modes=1))
            obj.update(edits)
            model = tmp_path / "model.json"
            model.write_text(json.dumps(obj))
            result = run_cli("sigma", "--model", str(model), *argv)
        assert result.returncode == 2
        assert fragment in result.stderr and "... (3001 characters)" in result.stderr
        assert len(result.stderr) < 200

    @pytest.mark.parametrize("max_iter", ["0", "-3", "201"])
    def test_sweep_cap_must_be_positive(self, model_file, max_iter):
        result = run_cli("sigma", "--model", model_file, "--max-iter", max_iter)
        assert result.returncode == 2
        assert "max_iter must be at least 1 and at most MAX_SWEEPS = 200" in result.stderr
        assert result.stdout == ""

    def test_report_keys(self, solution_file):
        data = json.loads(Path(solution_file).read_text())
        for m in data["modes"]:
            assert sorted(m["report"]) == ["converged", "factor_changes", "iterations"]

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

    def test_refit_matches_stored_spectrum(self, solution_file, coupled_solution_file):
        # The refit uses the time-pair degree and lattice tolerance of the
        # field solve, so it reproduces the stored spectrum exactly, for the
        # linear and the coupled string alike.
        for path in (solution_file, coupled_solution_file):
            stored = json.loads(Path(path).read_text())
            result = run_cli("action", "--solution", path)
            assert result.returncode == 0, result.stderr
            assert result.stdout == serialize.dumps(stored["action_spectrum"])
            refit = json.loads(result.stdout)
            assert [a["alpha"] for a in refit["alphas"]] == [
                m["action_alpha"] for m in stored["modes"]]

    def test_refit_accepts_per_sweep_residual_history(self, tmp_path, solution_file):
        # Older solutions carried report.indicial_residuals; they still load.
        stored = json.loads(Path(solution_file).read_text())
        for m in stored["modes"]:
            m["report"]["indicial_residuals"] = [m["indicial_residual"]]
        path = tmp_path / "old_solution.json"
        path.write_text(serialize.dumps(stored))
        result = run_cli("action", "--solution", str(path))
        assert result.returncode == 0, result.stderr
        assert result.stdout == serialize.dumps(stored["action_spectrum"])

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

    @pytest.mark.parametrize("amplitudes", [[1.0, 1e200], [1e200]], ids=["pair", "alone"])
    def test_overflowing_action_one_error_line(self, tmp_path, amplitudes):
        # A^2 pi/2 overflows to inf. Before, the fit raised the interpreter's
        # "math domain error" or "cannot convert float NaN to integer".
        obj = {"modes": [{"label": f"m{i}", "omega": 1.0, "amplitude": a}
                         for i, a in enumerate(amplitudes)]}
        path = tmp_path / "overflow.json"
        path.write_text(serialize.dumps(obj))
        result = run_cli("action", "--solution", str(path))
        assert result.returncode == 2
        assert result.stderr.splitlines() == ["error: action value inf is not finite"]
        assert result.stdout == ""

    def test_sixteen_modes_off_the_lattice_finish(self, tmp_path):
        # Sixteen actions n_i pi/2 + delta_i, Fibonacci n_i and distinct
        # delta_i of 1.1e-11 to 2.6e-11: a closure built as a set of sums and
        # differences three levels deep grows as about n^8 on such values.
        piece = action_mod.make_time_pair().action
        multipliers = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]
        modes = [{"label": f"m{i}", "omega": float(i),
                  "amplitude": math.sqrt((n * piece + (10 + 7 * i % 17) * 1e-12) / piece)}
                 for i, n in enumerate(multipliers, 1)]
        path = tmp_path / "sixteen.json"
        path.write_text(serialize.dumps({"modes": modes}))
        result = run_fresh("action", "--solution", str(path), timeout=60)
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert data["multipliers"] == multipliers
        assert 1.1e-11 < max(data["residuals"]) < 2.7e-11
        assert data["closure"] is True

    def test_no_modes_invalid(self, tmp_path):
        path = tmp_path / "no_modes.json"
        path.write_text(serialize.dumps({"modes": []}))
        result = run_cli("action", "--solution", str(path))
        assert result.returncode == 2
        assert result.stderr.splitlines() == ["error: need at least one action value"]
        assert result.stdout == ""

    def test_nonpositive_omega_invalid(self, tmp_path):
        obj = {"modes": [{"label": "a", "omega": 0.0, "amplitude": 1.0}]}
        path = tmp_path / "zero_omega.json"
        path.write_text(serialize.dumps(obj))
        result = run_cli("action", "--solution", str(path))
        assert result.returncode == 2
        assert "solution.modes[0].omega must be positive" in result.stderr

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


    # Each edit puts a value of the wrong JSON type into one field of a stored
    # solution; before, omega and amplitude went through float() and the
    # label through str(), so most of these fitted a spectrum and exited 0.
    @pytest.mark.parametrize("path,value,message", [
        (("modes",), "m1", "solution.modes must be an array"),
        (("modes",), {}, "solution.modes must be an array"),
        (("modes", 0, "omega"), True, "solution.modes[0].omega must be a finite number"),
        (("modes", 0, "omega"), "1", "solution.modes[0].omega must be a finite number"),
        (("modes", 1, "amplitude"), "1", "solution.modes[1].amplitude must be a finite number"),
        (("modes", 0, "amplitude"), None, "solution.modes[0].amplitude must be a finite number"),
        (("modes", 0, "label"), 7, "solution.modes[0].label must be a string"),
        (("modes", 0, "space_factors"), {}, "solution.modes[0].space_factors must be an array"),
        (("modes", 0, "space_factors", 0), 1.0,
         "solution.modes[0].space_factors[0] must be a JSON object"),
        (("modes", 0, "space_factors", 0, "norm"), "1",
         "solution.modes[0].space_factors[0].norm must be a finite number"),
    ], ids=["modes-string", "modes-object", "omega-bool", "omega-string", "amplitude-string",
            "amplitude-null", "label-number", "factors-object", "factor-number", "norm-string"])
    def test_wrong_json_type_invalid(self, tmp_path, solution_file, path, value, message):
        obj = json.loads(Path(solution_file).read_text())
        set_at(obj, path, value)
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps(obj))
        result = run_cli("action", "--solution", str(solution))
        assert result.returncode == 2
        assert message in result.stderr


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
        assert result.stderr == (
            "error: occupation sequence must be canonical (no trailing zeros)\n")

    @pytest.mark.parametrize("occupation", ["0,0,100000000", "1000000", "4097"])
    def test_encode_past_the_integer_bound_invalid(self, occupation):
        result = run_fresh("encode", "--occupation", occupation, timeout=10)
        assert result.returncode == 2
        assert result.stderr.startswith("error: occupation ")
        assert "MAX_GODEL_BITS = 4096" in result.stderr

    def test_decode_at_and_past_the_integer_bound(self):
        assert run_cli("decode", "--integer", str(2**4096)).stdout == "4096\n"
        result = run_cli("decode", "--integer", str(2**4096 + 1))
        assert result.returncode == 2
        assert "MAX_GODEL_BITS" in result.stderr

    def test_decode_refuses_a_huge_integer_by_its_digits(self):
        result = run_cli("decode", "--integer", "1" * 5000)
        assert result.returncode == 2
        assert "MAX_GODEL_BITS" in result.stderr
        assert len(result.stderr) < 200

    @pytest.mark.parametrize("occupation,fragment", [
        ("-1" + "0" * 3000, "must be a nonnegative integer"),
        ("1" + "0" * 3000, "MAX_GODEL_BITS = 4096"),
    ], ids=["negative", "past-the-integer-bound"])
    def test_encode_refuses_a_huge_occupation_by_its_digits(self, occupation, fragment):
        result = run_cli("encode", "--occupation", occupation)
        assert result.returncode == 2
        assert fragment in result.stderr
        assert f"... ({len(occupation)} characters)" in result.stderr
        assert len(result.stderr) < 200

    @pytest.mark.parametrize("command,flag,text,fragment", [
        ("encode", "--occupation", "1,x", "comma-separated integers"),
        ("decode", "--integer", "12x", "an integer"),
        ("decode", "--integer", "abc", "an integer"),
        ("enumerate", "--omegas", "1,x", "comma-separated numbers"),
        ("enumerate", "--omegas", ",", "comma-separated numbers"),
    ], ids=["encode", "decode", "decode-letters", "enumerate", "enumerate-empty-entries"])
    def test_malformed_input_echo(self, capsys, command, flag, text, fragment):
        # A short input is echoed whole; a long one by a prefix and its
        # length, so 3 000 entries give one short line.
        extra = ["--quantum-I", "1", "--emax", "1"] if command == "enumerate" else []
        assert cli.main([command, flag, text, *extra]) == 2
        assert capsys.readouterr().err == f"error: {flag} expects {fragment}, got {text!r}\n"
        long_text = ",".join(["1"] * 3000) + ",x" if "," in text else "1" * 3000 + "x"
        assert cli.main([command, flag, long_text, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} expects {fragment}, got '1")
        assert f"({len(long_text)} characters)" in err
        assert len(err) < 200

    def test_qstar_product_past_the_coefficient_bound_invalid(self):
        result = run_cli("qstar", "--expr", "(2^64)^64*(2^64)^64*(2^64)^64*(2^64)^64")
        assert result.returncode == 2
        assert "MAX_COEFF_BITS" in result.stderr


class TestEnumerateCommand:
    def test_two_mode_example_csv(self):
        # The README example prints exactly its five lines.
        result = run_cli("enumerate", "--omegas", "1,2", "--quantum-I", "1.5707963267948966",
                         "--emax", "2")
        assert (result.returncode, result.stdout, result.stderr) == (
            0, "godel_integer,occupations,energy\n1,,0\n2,1,1\n3,0;1,2\n4,2,2\n", "")

    def test_bad_omega_rejected(self):
        result = run_cli("enumerate", "--omegas", "0", "--quantum-I", "1.0", "--emax", "1")
        assert result.returncode == 2

    def test_quantum_underflowing_to_zero_one_error_line(self):
        # h omega / 2pi of 1e-300 and 4e-300 is 0.0: refused by name, not a
        # division by zero in the Godel-size bound.
        result = run_cli("enumerate", "--omegas", "1e-300", "--quantum-I", "1e-300", "--emax", "1")
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "error: the quantum of frequency 1e-300 at h = 4e-300 underflows to 0\n")

    @pytest.mark.parametrize("omegas,quantum,message", [
        ("1,2", "inf", "h = inf is not finite"),
        ("1,2", "1e308", "h = inf is not finite"),  # h = 4 I overflows
        ("inf,1", "1", "the quantum of frequency inf at h = 4.0 is not finite"),
        ("1e308,1", "1e10",
         "the quantum of frequency 1e+308 at h = 40000000000.0 is not finite"),
    ], ids=["h-inf", "h-overflows", "omega-inf", "quantum-overflows"])
    def test_non_finite_quantum_one_error_line(self, omegas, quantum, message):
        # A non-finite quantum would list only the vacuum, or drop its mode.
        result = run_cli("enumerate", "--omegas", omegas, "--quantum-I", quantum, "--emax", "1")
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")

    def test_no_frequency_invalid(self):
        # A blank list is empty; "," holds two empty entries and is refused
        # as malformed (``TestCodecCommands::test_malformed_input_echo``).
        result = run_cli("enumerate", "--omegas", " ", "--quantum-I", "1", "--emax", "1")
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "error: --omegas must list at least one frequency\n")

    def test_five_mode_digest(self):
        # Interior zeros and two-digit occupations (557 states) keep a
        # pinned sha256 of the CSV bytes.
        result = run_cli("enumerate", "--omegas", "0.3,1.1,0.7,2.9,1.7",
                         "--quantum-I", "1.5707963267948966", "--emax", "6.3")
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("\n") == 558
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "35a105a56a6275cf83bbe33f777f00c4ca52a961c28dab40796de30621e6ceb6")

    @pytest.mark.parametrize("emax", ["inf", "nan", "1.7976931348623157e308"])
    def test_nonfinite_cutoff_invalid(self, emax):
        # The largest float is finite, but padding it by its slack is not.
        result = run_cli("enumerate", "--omegas", "1,2", "--quantum-I", "1", "--emax", emax)
        assert result.returncode == 2
        assert "e_max" in result.stderr
        assert "Traceback" not in result.stderr
        assert "convert" not in result.stderr

    @pytest.mark.parametrize("omegas", ["1", "1e-10"])
    def test_huge_cutoff_message_is_short(self, omegas):
        # 2^(10^308) is far past the integer bound; the message gives the
        # bit count in a few digits, and a mode energy far below the cutoff
        # is refused the same way, not by a float-to-int overflow. There the
        # bit count overflows, and the message states only the bound it passes.
        result = run_cli("enumerate", "--omegas", omegas, "--quantum-I", "1", "--emax", "1e308")
        assert result.returncode == 2
        assert result.stderr.startswith("error: e_max = 1e+308 admits Godel integers")
        assert "MAX_GODEL_BITS = 4096" in result.stderr
        assert "inf" not in result.stderr
        assert len(result.stderr) < 150

    @pytest.mark.parametrize("limit,code", [(5984, 0), (5983, 2)], ids=["at-limit", "past-limit"])
    def test_state_limit(self, monkeypatch, limit, code):
        # Three modes of energy 4 / 2pi below 20 have C(31 + 3, 3) = 5 984
        # states; the command runs with godel.MAX_STATES lowered to the limit.
        monkeypatch.setattr(godel, "MAX_STATES", limit)
        result = run_cli("enumerate", "--omegas", "1,1,1", "--quantum-I", "1", "--emax", "20")
        assert result.returncode == code
        if code:
            assert result.stderr == (
                f"error: more than MAX_STATES = {limit} states below e_max = 20.0\n")
        else:
            assert len(result.stdout.splitlines()) == limit + 1

    def test_integer_size_limit(self):
        # One mode with 999 999 quanta below the cutoff: few enough states,
        # but the last Godel integer is 2^999999.
        result = run_fresh("enumerate", "--omegas", "1", "--quantum-I", repr(math.pi / 2),
                         "--emax", "999999", timeout=30)
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
        # Any whitespace, a tab included, separates tokens: both spellings
        # print the same bytes.
        for expr in ("(W+1)/W", "( W\t+ 1 )/W"):
            result = run_cli("qstar", "--expr", expr)
            assert result.returncode == 0, result.stderr
            assert result.stdout == "(W+1)/W\nfinite; equal to 1; not identical to 1\n"

    def test_reduction_shown(self):
        result = run_cli("qstar", "--expr", "(W*W-1)/(W-1)")
        assert result.stdout.splitlines()[0] == "W+1"

    def test_bad_expression(self):
        result = run_cli("qstar", "--expr", "(W")
        assert result.returncode == 2
        result = run_cli("qstar", "--expr", "W + x")
        assert result.returncode == 2
        assert "unexpected character 'x'" in result.stderr

    def test_largest_integer_power(self):
        result = run_cli("qstar", "--expr", "(2^64)^64")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == str(2**4096)

    @pytest.mark.parametrize("expr,bound", [
        ("1^" + "9" * 2400, "MAX_COEFF_BITS"),
        ("W^100000", "MAX_POWER_DEGREE"),
        ("W^" + "9" * 2400, "MAX_POWER_DEGREE"),
        ("(W+1)^" + "9" * 2400, "MAX_POWER_DEGREE"),
        ("(" * 5000 + "W" + ")" * 5000, "nests too deeply"),
        ("((W+1)^64)^64", "MAX_POWER_DEGREE"),
        ("*".join(["(W^3+3*W+1)/(W^2-7)"] * 50), "MAX_POWER_DEGREE"),
        ("((((2^64)^64)^64)^64)^64", "MAX_COEFF_BITS"),
        ("1" * 3000, "MAX_COEFF_BITS"),
        ("1 " + "2" * 3000, "trailing input at '2222"),
    ], ids=["huge-exponent", "exponent-past-degree", "huge-exponent-past-degree",
            "huge-exponent-of-a-sum", "deep-nesting", "nested-power", "long-product",
            "nested-integer-power", "long-literal", "long-trailing-literal"])
    def test_unbounded_input_invalid(self, expr, bound):
        result = run_fresh("qstar", "--expr", expr, timeout=10)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert bound in result.stderr
        # One short line: no size of the input is printed in full.
        assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 120
        assert "Traceback" not in result.stderr
        # Refused by a named bound, not by the interpreter's digit limit.
        assert "set_int_max_str_digits" not in result.stderr


# A variable-coefficient problem with a value condition at a and a derivative
# condition at b, and a coupled 2-D box model.
MIXED_PROBLEM = """{
  "p": {"coeffs": [1.0, 0.1, 0.4], "interval": [0.0, 5.0]},
  "q": {"coeffs": [0.7, -0.2], "interval": [0.0, 5.0]},
  "r": {"coeffs": [1.0, 0.25], "interval": [0.0, 5.0]},
  "bc": {"a": "value", "b": "derivative"}
}
"""
BOX_MODEL = """{
  "space_dims": [
    {"interval": [0.0, 1.3], "r": {"coeffs": [1.0], "interval": [0.0, 1.3]},
     "bc": {"a": "value", "b": "value"}},
    {"interval": [0.0, 2.1], "r": {"coeffs": [1.0], "interval": [0.0, 2.1]},
     "bc": {"a": "value", "b": "value"}}
  ],
  "time_dim": {"interval": [0.0, 1.5707963267948966],
               "r": {"coeffs": [1.0], "interval": [0.0, 1.5707963267948966]},
               "bc": {"a": "value", "b": "value"}},
  "P": {"terms": [[{"coeffs": [1.0], "interval": [0.0, 1.3]},
                   {"coeffs": [1.0], "interval": [0.0, 2.1]},
                   {"coeffs": [1.0], "interval": [0.0, 1.5707963267948966]}]]},
  "Q": {"terms": [], "coupling_g": 0.05},
  "modes": [{"label": "m12", "targets": [1, 2]}]
}
"""
# Three components and a P term that depends on time: the frequency pin must
# balance the components' summed time integrals.
TIMEDEP_MODEL = """{
  "space_dims": [
    {"interval": [0.0, 1.3], "r": {"coeffs": [1.0], "interval": [0.0, 1.3]},
     "bc": {"a": "value", "b": "value"}},
    {"interval": [0.0, 2.1], "r": {"coeffs": [1.0], "interval": [0.0, 2.1]},
     "bc": {"a": "value", "b": "value"}}
  ],
  "time_dim": {"interval": [0.0, 1.5707963267948966],
               "r": {"coeffs": [1.0], "interval": [0.0, 1.5707963267948966]},
               "bc": {"a": "value", "b": "value"}},
  "components": 3,
  "P": {"terms": [[{"coeffs": [1.0], "interval": [0.0, 1.3]},
                   {"coeffs": [1.0], "interval": [0.0, 2.1]},
                   {"coeffs": [1.0, 1.0], "interval": [0.0, 1.5707963267948966]}]],
        "coupling_g": 0.02},
  "Q": {"terms": [], "coupling_g": 0.05},
  "modes": [{"label": "m11", "targets": [1, 1]}, {"label": "m12", "targets": [1, 2]}]
}
"""


def same_bytes_cold_and_warm(tmp_path, argv):
    """Run the command twice in fresh processes and twice in this one, each
    writing its --out file; all four must hold the same bytes. Returns the
    first output's path."""
    paths = [tmp_path / f"out_{i}.json" for i in range(4)]
    for path in paths[:2]:
        result = run_fresh(*argv, "--out", str(path))
        assert result.returncode == 0, result.stderr
    for path in paths[2:]:
        assert cli.main([*argv, "--out", str(path)]) == 0
    first = paths[0].read_bytes()
    assert all(path.read_bytes() == first for path in paths[1:])
    return paths[0]


def read_back_with_numpy(problem_path, solution_path):
    """Each stored mode, read with numpy alone through the documented
    "legendre" format and the problem's monomial p, q, r: the worst relative
    gap between its Rayleigh quotient by a 200-node Gauss-Legendre rule and
    its lambda, and the worst of |u(a)| and |u'(b)| relative to max |u|."""
    from numpy.polynomial import legendre as L, polynomial as P

    prob = json.loads(Path(problem_path).read_text())
    sol = json.loads(Path(solution_path).read_text())
    a, b = prob["p"]["interval"]
    t, w = L.leggauss(200)
    x, w = 0.5 * (a + b) + 0.5 * (b - a) * t, 0.5 * (b - a) * w
    p, q, r = (P.polyval(x, prob[k]["coeffs"]) for k in "pqr")
    worst_q = worst_bc = 0.0
    for mode in sol["modes"]:
        c = mode["legendre"]
        u, du = L.legval(t, c), L.legval(t, L.legder(c)) * 2 / (b - a)
        quotient = np.dot(w, p * du**2 - q * u**2) / np.dot(w, r * u**2)
        worst_q = max(worst_q, abs(quotient - mode["lambda"]) / abs(mode["lambda"]))
        scale = np.abs(L.legval(np.linspace(-1, 1, 1001), c)).max()
        ends = abs(L.legval(-1.0, c)), abs(L.legval(1.0, L.legder(c)) * 2 / (b - a))
        worst_bc = max(worst_bc, max(ends) / scale)
    return worst_q, worst_bc


class TestDeterminism:
    def test_mixed_eigen_byte_identical_and_read_back(self, tmp_path):
        problem = tmp_path / "mixed.json"
        problem.write_text(MIXED_PROBLEM)
        out = same_bytes_cold_and_warm(
            tmp_path, ("eigen", "--problem", str(problem), "--modes", "6", "--max-degree", "64"))
        worst_q, worst_bc = read_back_with_numpy(problem, out)
        assert worst_q <= 1e-11 and worst_bc <= 1e-12, (worst_q, worst_bc)

    def test_box_sigma_byte_identical(self, tmp_path):
        model = tmp_path / "box.json"
        model.write_text(BOX_MODEL)
        same_bytes_cold_and_warm(tmp_path, ("sigma", "--model", str(model)))

    def test_time_dependent_three_component_byte_identical(self, tmp_path):
        # The warm passes reuse the integrals kept from earlier modes and runs.
        model = tmp_path / "timedep.json"
        model.write_text(TIMEDEP_MODEL)
        out = same_bytes_cold_and_warm(tmp_path, ("sigma", "--model", str(model)))
        stored = json.loads(out.read_text())
        assert all(m["null_residual"] <= 1e-6 for m in stored["modes"]), stored["modes"]
        # The refit of a stored solution reads the same time pair's action as
        # the solve, so it must reproduce the stored action spectrum.
        result = run_cli("action", "--solution", str(out))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == stored["action_spectrum"]

    def test_box_mode_missing_a_target_invalid(self, tmp_path):
        # A second mode with one target for two space dimensions is refused,
        # by its field, before the first mode is solved.
        obj = json.loads(BOX_MODEL)
        obj["modes"].append({"label": "bad", "targets": [1]})
        model = tmp_path / "box_bad.json"
        model.write_text(json.dumps(obj))
        result = run_cli("sigma", "--model", str(model))
        assert result.returncode == 2
        assert "modes[1]" in result.stderr
