"""The README's memo table names every ``lru_cache`` of the library and every
``cached_property`` of its classes: a memo or a value kept on its object
added or deleted without its row fails here."""

import importlib
import pkgutil
import re
from functools import cached_property
from pathlib import Path

import eigenforge

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
