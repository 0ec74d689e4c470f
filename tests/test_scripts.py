"""The experiment scripts, run in process: their files, the solution each
string pipeline writes against the CLI's own run on the model it wrote, and
that solution's action refit."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "eigenforge", "sigma", "--model", str(model),
         "--out", str(cli_solution)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert cli_solution.read_bytes() == (tmp_path / "string_solution.json").read_bytes()
    # The refit of the stored solution reproduces its action spectrum.
    assert cli.main(["action", "--solution", str(cli_solution)]) == 0
    stored = json.loads(cli_solution.read_text())
    assert capsys.readouterr().out == serialize.dumps(stored["action_spectrum"])


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
    (["--lengths", "1,x"], "could not convert string to float: 'x'"),
    (["--emax", "inf"], "e_max must be finite and nonnegative, got inf"),
    (["--lengths", "1e300", "--emax", "1e10", "--modes", "2"],
     "counting the states below e_max = 10000000000.0 takes more additions than "
     "MAX_STATES = 1000000"),
    (["--lengths", "1", "--emax", "1e300"],
     "counting the states below e_max = 1e+300 takes 1.90986e+300 additions, more than "
     "MAX_STATES = 1000000"),
], ids=["descending", "not-a-number", "infinite-emax", "levels-past-float-range",
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
