"""The README's memo table names every ``lru_cache`` of the library and every
``cached_property`` of its classes: a memo or a value kept on its object
added or deleted without its row fails here. Every array a memo returns is
shared by all its callers and must be read-only."""

import dataclasses
import importlib
import pkgutil
import re
from functools import cached_property
from pathlib import Path

import numpy as np

import eigenforge
from conftest import NEUMANN
from eigenforge import action, polynomials, sigma_model, sturm_liouville
from eigenforge.polynomials import poly

README = Path(__file__).resolve().parents[1] / "README.md"


def library_memos() -> tuple[set[str], set[str]]:
    """``module.name`` (``module.Class.name`` for a method) of every object
    with ``cache_info`` defined in an eigenforge module, and
    ``module.Class.name`` of every ``cached_property`` of its classes."""
    names, kept = set(), set()
    for info in pkgutil.iter_modules(eigenforge.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"eigenforge.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from another module, counted there
            if hasattr(obj, "cache_info"):
                names.add(f"{info.name}.{name}")
            elif isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if hasattr(member, "cache_info"):
                        names.add(f"{info.name}.{name}.{attr}")
                    elif isinstance(member, cached_property):
                        kept.add(f"{info.name}.{name}.{attr}")
    return names, kept


def readme_memos() -> tuple[int, int, list[str], list[str]]:
    """The memo and kept-value counts the README states, and the first
    column of its table: its ``lru_cache`` rows, then its rows of values
    kept on their objects (bound "the object")."""
    text = README.read_text(encoding="utf-8")
    counts = re.search(r"The library keeps (\d+) `functools.lru_cache` memos and (\d+)\s+"
                       r"`functools.cached_property` values", text)
    rows = text.split("| Memo | Key | Bound |", 1)[1].splitlines()[2:]
    names, kept = [], []
    for row in rows:
        if not row.startswith("| `"):
            break
        (kept if row.split("|")[3].strip() == "the object" else names).append(row.split("`")[1])
    return int(counts.group(1)), int(counts.group(2)), names, kept


def test_readme_table_lists_every_memo():
    count, kept_count, names, kept = readme_memos()
    assert len(names) == len(set(names)) == count
    assert len(kept) == len(set(kept)) == kept_count
    assert (set(names), set(kept)) == library_memos()


# One sample call per memo, and the number of arrays its result holds;
# ``_reference_sequence`` is read at one block size.
SAMPLES = {
    "action.make_time_pair": (action.make_time_pair, 0),
    "polynomials._legendre_derivative": (lambda: polynomials._legendre_derivative(4), 1),
    "polynomials._gauss_legendre": (lambda: polynomials._gauss_legendre(4), 2),
    "polynomials._legendre_table": (lambda: polynomials._legendre_table(4, 3), 1),
    "polynomials.integrate_product": (lambda: polynomials.integrate_product(poly([1.0, 2.0])), 0),
    "polynomials._fit_operator": (lambda: polynomials._fit_operator(3), 2),
    "sigma_model._unit_norm": (lambda: sigma_model._unit_norm(poly([2.0]), poly([1.0])), 0),
    "sturm_liouville._is_positive": (lambda: sturm_liouville._is_positive(poly([1.0])), 0),
    "sturm_liouville._shen_recombination":
        (lambda: sturm_liouville._shen_recombination(NEUMANN), 2),
    "sturm_liouville._reference_sequence":
        (lambda: sturm_liouville._reference_sequence(NEUMANN, 40)(3), 3),
}


def arrays_in(value) -> list[np.ndarray]:
    """Every ndarray in value, through tuples, lists and dataclass fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in arrays_in(item)]
    return []


def test_every_memo_returns_read_only_arrays():
    assert set(SAMPLES) == library_memos()[0]
    for name, (call, count) in SAMPLES.items():
        arrays = arrays_in(call())
        assert len(arrays) == count, name
        for array in arrays:
            assert not array.flags.writeable, name
