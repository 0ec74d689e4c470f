"""The experiment scripts, run in process: their files, the solution each
string pipeline writes against the CLI's own cold run (``run_fresh``) on the
model it wrote, and that solution's action refit; the pipeline's refusal of
a cutoff; and every numeric flag of the CLI and the scripts, read in the one
ASCII number notation."""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import make_string_spec, make_unit_problem, problem_to_obj, run_fresh
from eigenforge import cli, serialize

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [(), ("--coupling", "0.01")], ids=["linear", "coupled"])
def test_string_pipeline_matches_the_cli(tmp_path, capsys, flags):
    pipeline = load_script("run_string_pipeline")
    assert pipeline.main([*flags, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("string_model.json", "string_solution.json", "definable_states.csv"):
        assert (tmp_path / name).stat().st_size > 0, name
    assert (tmp_path / "definable_states.csv").read_text().startswith(
        "godel_integer,occupations,energy\n1,,0\n")
    # The CLI in a fresh process writes the same solution bytes.
    model, cli_solution = tmp_path / "string_model.json", tmp_path / "cli_solution.json"
    result = run_fresh("sigma", "--model", str(model), "--out", str(cli_solution))
    assert result.returncode == 0, result.stderr
    assert cli_solution.read_bytes() == (tmp_path / "string_solution.json").read_bytes()
    # The refit of the stored solution reproduces its action spectrum.
    assert cli.main(["action", "--solution", str(cli_solution)]) == 0
    stored = json.loads(cli_solution.read_text())
    assert capsys.readouterr().out == serialize.dumps(stored["action_spectrum"])


@pytest.mark.parametrize("emax, written, message", [
    ("inf", [], "e_max must be finite and nonnegative, got inf"),
    ("-1", [], "e_max must be finite and nonnegative, got -1.0"),
    ("1e5", ["string_model.json", "string_solution.json"],
     "e_max = 100000.0 admits Godel integers of up to 100000 bits, more than "
     "MAX_GODEL_BITS = 4096 bits"),
], ids=["infinite", "negative", "past-the-integer-bound"])
def test_string_pipeline_refuses_a_cutoff_before_it_prints(tmp_path, capsys, emax, written,
                                                           message):
    # A cutoff refused for any spectrum writes no file; one that only the
    # solved spectrum refuses prints no mode table.
    pipeline = load_script("run_string_pipeline")
    assert pipeline.main(["--emax", emax, "--out-dir", str(tmp_path)]) == cli.EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == written


def test_definability_scan_counts_never_decrease(tmp_path, capsys):
    scan = load_script("definability_scan")
    out = tmp_path / "counts.csv"
    assert scan.main(["--out", str(out)]) == 0
    header, *rows, wrote = capsys.readouterr().out.splitlines()
    assert header.split() == ["L", "count"] and wrote == f"wrote {out}"
    printed = [(float(length), int(count)) for length, count in map(str.split, rows)]
    assert [length for length, _ in printed] == [0.5, 1.0, 2.0, 4.0, 8.0]
    counts = [count for _, count in printed]
    assert counts == sorted(counts) and counts[0] >= 1
    assert out.read_text() == "box_length,count\n" + "".join(
        f"{serialize.format_float(length)},{count}\n" for length, count in printed)


@pytest.mark.parametrize("flags, message", [
    (["--lengths", "2,1"], "box lengths must be ascending"),
    (["--lengths", "1,x"], "--lengths expects comma-separated numbers, got '1,x'"),
    (["--lengths", ""], "--lengths must list at least one length"),
    (["--lengths", "inf"], "box length inf is not finite"),
    (["--lengths", "1e-320"], "box length 1e-320 is so short that mode 1's energy overflows"),
    (["--emax", "inf"], "e_max must be finite and nonnegative, got inf"),
    (["--lengths", "1e300", "--emax", "1e10", "--modes", "2"],
     "counting the states below e_max = 10000000000.0 takes more additions than "
     "MAX_STATES = 1000000"),
    (["--lengths", "1", "--emax", "1e300"],
     "counting the states below e_max = 1e+300 takes 1.90986e+300 additions, more than "
     "MAX_STATES = 1000000"),
], ids=["descending", "not-a-number", "no-length", "infinite-length", "overflowing-length",
        "infinite-emax", "levels-past-float-range",
        "levels-past-int-range"])
def test_definability_scan_invalid_input_one_error_line(capsys, flags, message):
    scan = load_script("definability_scan")
    assert scan.main(flags) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_definability_scan_counts_past_the_listing_limit(capsys):
    # More states than godel.MAX_STATES lists: they are counted, not listed.
    scan = load_script("definability_scan")
    assert scan.main(["--lengths", "8", "--emax", "30", "--modes", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["8.0000", "3705839"]


@pytest.mark.parametrize("text", ["1,,2", "1,", ","])
@pytest.mark.parametrize("argv, noun", [
    (["enumerate", "--quantum-I", "1", "--emax", "1", "--omegas"], "numbers"),
    (["encode", "--occupation"], "integers"),
    (["--lengths"], "numbers"),
], ids=["omegas", "occupation", "lengths"])
def test_every_list_flag_is_read_by_one_rule(capsys, argv, noun, text):
    # The CLI's list flags and the scan's --lengths refuse an empty entry
    # with one message, which echoes a short text whole and a long one by a
    # prefix and its length.
    main = load_script("definability_scan").main if argv == ["--lengths"] else cli.main
    flag = argv[-1]
    assert main([*argv, text]) == cli.EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: {flag} expects comma-separated {noun}, "
                                       f"got {text!r}\n")
    long_text = ",".join(["1"] * 3000) + text
    assert main([*argv, long_text]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} expects comma-separated {noun}, got '1,1")
    assert err.endswith(f"... ({len(long_text)} characters)\n") and len(err) < 200


# Every numeric flag: the program that reads it, the arguments it runs with,
# and the kind Python's int() or float() read it as before the one notation.
NUMERIC_FLAGS = [
    ("cli", ["eigen", "--problem", "{problem}"], "--modes", int),
    ("cli", ["eigen", "--problem", "{problem}"], "--tol", float),
    ("cli", ["eigen", "--problem", "{problem}"], "--max-degree", int),
    ("cli", ["sigma", "--model", "{model}"], "--tol", float),
    ("cli", ["sigma", "--model", "{model}"], "--max-iter", int),
    ("cli", ["action", "--solution", "{solution}"], "--lattice-tol", float),
    ("cli", ["encode"], "--occupation", int),
    ("cli", ["decode"], "--integer", int),
    ("cli", ["enumerate", "--quantum-I", "1", "--emax", "1"], "--omegas", float),
    ("cli", ["enumerate", "--omegas", "1,2", "--emax", "2"], "--quantum-I", float),
    ("cli", ["enumerate", "--omegas", "1,2", "--quantum-I", "1"], "--emax", float),
    ("definability_scan", [], "--lengths", float),
    ("definability_scan", [], "--emax", float),
    ("definability_scan", [], "--modes", int),
    ("run_string_pipeline", ["--out-dir", "{out}"], "--modes", int),
    ("run_string_pipeline", ["--out-dir", "{out}", "--modes", "1"], "--coupling", float),
    ("run_string_pipeline", ["--out-dir", "{out}", "--modes", "1"], "--emax", float),
]


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """The files and the output directory the numeric flags run with."""
    directory = tmp_path_factory.mktemp("flags")
    inputs = {name: str(directory / f"{name}.json") for name in ("problem", "model", "solution")}
    Path(inputs["problem"]).write_text(serialize.dumps(problem_to_obj(make_unit_problem())))
    Path(inputs["model"]).write_text(
        serialize.dumps(serialize.model_to_obj(make_string_spec(num_modes=1))))
    assert cli.main(["sigma", "--model", inputs["model"], "--out", inputs["solution"]]) == 0
    return {**inputs, "out": str(directory / "out")}


def run_flag(capsys, program, argv, flag, text, inputs):
    """(exit status, stdout, stderr) of the program run in process with
    ``flag`` set to ``text``, argparse's exit included."""
    main = cli.main if program == "cli" else load_script(program).main
    try:
        code = main([arg.format(**inputs) for arg in argv] + [flag, text])
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("program, argv, flag, kind", NUMERIC_FLAGS,
                         ids=[f"{program if program != 'cli' else argv[0]} {flag}"
                              for program, argv, flag, _ in NUMERIC_FLAGS])
def test_every_numeric_flag_reads_one_ascii_notation(capsys, flag_inputs, program, argv, flag,
                                                      kind):
    run = functools.partial(run_flag, capsys, program, argv, flag, inputs=flag_inputs)
    # Another script's digit and an underscore are refused: exit 2, nothing
    # on stdout, and one stderr line, the last, which echoes the text.
    for text in ("\u0661", "\uff11", "1_0"):
        code, out, err = run(text)
        assert (code, out) == (2, ""), text
        assert [line for line in err.splitlines() if repr(text) in line] == [
            err.splitlines()[-1]], err
    # A value of 3 000 digits, which the notation reads, is refused (or run)
    # in a short message.
    assert len(run("1" * 3000)[2].encode()) < 200
    # ASCII texts read as Python's int() or float() read them: the same
    # result as the value's own spelling, or a refusal that echoes the text.
    for text in ("+3", " 2 ", "1e-10", "inf"):
        try:
            spelled = repr(kind(text))
        except ValueError:
            code, out, err = run(text)
            assert (code, out) == (2, "") and err.endswith(f"{text!r}\n"), text
        else:
            if spelled != text:
                assert run(text) == run(spelled), text
