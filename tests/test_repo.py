"""Repository checks: the pytest configuration reports a failing property
test, every public function, class, assigned module-level name and class
member of the library has a use, and every name the benchmark's tracer looks
up exists."""

import ast
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

from eigenforge.polynomials import Polynomial

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


def _defined_names(stmt):
    """The names a statement of a module or class body defines: a function,
    a class, or a plain name bound by assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def unused_public_names():
    """``module.name`` of each public module-level function, class and name
    bound by assignment of the library that nothing names outside its own
    definition: not another statement of the library, nor a file under
    ``scripts/`` or ``perfbench/``. A definition with no use does not count
    as a use of the names it reads."""
    library = [(path.stem, stmt) for path in sorted((ROOT / "src" / "eigenforge").glob("*.py"))
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    readers = {name for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))
               for name in _names(ast.parse(path.read_text(encoding="utf-8")))}
    public = [(module, name, stmt) for module, stmt in library
              for name in _defined_names(stmt) if not name.startswith("_")]
    named = [(stmt, set(_names(stmt))) for _, stmt in library]
    unused = set()
    while True:
        found = {stmt for _, name, stmt in public
                 if stmt not in unused and name not in readers
                 and not any(name in names for other, names in named
                             if other is not stmt and other not in unused)}
        if not found:
            return sorted(f"{module}.{name}" for module, name, stmt in public if stmt in unused)
        unused |= found


def test_every_public_function_and_class_has_a_use():
    assert unused_public_names() == []


def _attribute_reads(node):
    """How often each attribute name is read (``x.name`` in a load) in a node."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def unused_public_members():
    """``module.Class.name`` of each public non-dunder method, property and
    class attribute of a public library class that is read as an attribute
    nowhere outside its own definition: not in the library, nor in a file
    under ``scripts/`` or ``perfbench/``. Reads are matched by name alone, so
    a name shared by two classes counts as a use of both, and a name looked
    up by string (``getattr``) counts as no use."""
    library = sorted((ROOT / "src" / "eigenforge").glob("*.py"))
    readers = [path for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in library + readers}
    reads = sum(map(_attribute_reads, trees.values()), Counter())
    return sorted(f"{path.stem}.{cls.name}.{name}"
                  for path in library for cls in trees[path].body
                  if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                  for stmt in cls.body for name in _defined_names(stmt)
                  if not name.startswith("_") and reads[name] == _attribute_reads(stmt)[name])


def test_every_public_member_has_a_use():
    assert unused_public_members() == []


def test_every_name_the_tracer_looks_up_exists():
    # ``--trace 1`` wraps these by name; a deleted one breaks only the
    # traced run, which no other tier-1 test starts.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, *_ in tracing.LAYER_FUNCTIONS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    assert [op for op in tracing.ARITH_OPERATORS if op not in Polynomial.__dict__] == []
