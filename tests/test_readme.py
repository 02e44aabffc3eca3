"""The library examples in README.md import names that exist."""

import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# ``from rae.x import a, b`` on one line, or ``from rae.x import (...)``
# across several.
IMPORT = re.compile(r"^from (rae(?:\.\w+)*) import (\([^)]*\)|[^\n]*)", re.MULTILINE)


def readme_imports():
    pairs = []
    for module, names in IMPORT.findall(README.read_text(encoding="utf-8")):
        for name in names.strip("()").replace("\n", " ").split(","):
            if name.strip():
                pairs.append((module, name.strip()))
    return pairs


def test_readme_imports_resolve():
    pairs = readme_imports()
    assert len(pairs) >= 2, "README.md has no library example imports"
    missing = [f"{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
