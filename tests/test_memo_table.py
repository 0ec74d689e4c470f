"""The README's memo table names every ``lru_cache`` of the library: a memo
added or deleted without its row fails here."""

import importlib
import pkgutil
import re
from pathlib import Path

import eigenforge

README = Path(__file__).resolve().parents[1] / "README.md"


def library_memos() -> set[str]:
    """``module.name`` (``module.Class.name`` for a method) of every object
    with ``cache_info`` defined in an eigenforge module."""
    names = set()
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
                names.update(f"{info.name}.{name}.{attr}"
                             for attr, member in vars(obj).items()
                             if hasattr(member, "cache_info"))
    return names


def readme_memos() -> tuple[int, list[str]]:
    """The memo count the README states and the first column of its table."""
    text = README.read_text(encoding="utf-8")
    count = int(re.search(r"The library keeps (\d+) `functools.lru_cache` memos", text).group(1))
    rows = text.split("| Memo | Key | Bound |", 1)[1].splitlines()[2:]
    names = []
    for row in rows:
        if not row.startswith("| `"):
            break
        names.append(row.split("`")[1])
    return count, names


def test_readme_table_lists_every_memo():
    count, names = readme_memos()
    assert len(names) == len(set(names)) == count
    assert set(names) == library_memos()
