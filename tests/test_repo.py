"""Repository checks: the pytest configuration reports a failing property
test, and every public function and class of the library has a use."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_example_is_reported(tmp_path):
    # Under the suite's own settings, warnings as errors included, reporting
    # the failing example must not end the run.
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1


def _names(node):
    """Every name a node reads, imports or looks up as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def unused_public_names():
    """``module.name`` of each public module-level function and class of the
    library that nothing names outside its own definition: not another
    statement of the library, nor a file under ``scripts/`` or ``perfbench/``.
    A definition with no use does not count as a use of the names it reads."""
    library = [(path.stem, stmt) for path in sorted((ROOT / "src" / "eigenforge").glob("*.py"))
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    readers = {name for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))
               for name in _names(ast.parse(path.read_text(encoding="utf-8")))}
    public = [(module, stmt) for module, stmt in library
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")]
    named = [(stmt, set(_names(stmt))) for _, stmt in library]
    unused = set()
    while True:
        found = {stmt for _, stmt in public
                 if stmt not in unused and stmt.name not in readers
                 and not any(stmt.name in names for other, names in named
                             if other is not stmt and other not in unused)}
        if not found:
            return sorted(f"{module}.{stmt.name}" for module, stmt in public if stmt in unused)
        unused |= found


def test_every_public_function_and_class_has_a_use():
    assert unused_public_names() == []
