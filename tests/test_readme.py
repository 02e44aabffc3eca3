"""The library examples in README.md import names that exist, and run."""

import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# ``from rae.x import a, b`` on one line, or ``from rae.x import (...)``
# across several.
IMPORT = re.compile(r"^from (rae(?:\.\w+)*) import (\([^)]*\)|[^\n]*)", re.MULTILINE)
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

# A backticked ``rae.<module>.<name>`` or ``<module>.<name>``, with an
# optional ``.attr``, for every module of the package.
MODULES = ("cli", "energy", "fisher", "inference", "jsonio", "noisefit", "pauli",
           "schedules", "simulator")
QUALIFIED = re.compile(r"`(?:rae\.)?((?:%s)(?:\.\w+){1,2})`" % "|".join(MODULES))


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


def _resolves(dotted: str) -> bool:
    module, *parts = dotted.split(".")
    target = importlib.import_module(f"rae.{module}")
    for part in parts:
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_readme_qualified_names_resolve():
    """Every module-qualified name the prose cites exists, so a renamed
    function or moved name fails here and not in a reader's hands."""
    names = QUALIFIED.findall(README.read_text(encoding="utf-8"))
    assert names, "README.md cites no module-qualified names"
    assert [name for name in names if not _resolves(name)] == []


def test_readme_examples_run(tmp_path, monkeypatch):
    """Every ``python`` block runs, in README order and in one namespace
    (a later block may use an earlier one's names), from an empty working
    directory, so a renamed function or field fails here."""
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2, "README.md has no python examples"
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_example"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
