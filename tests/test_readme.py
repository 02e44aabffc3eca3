"""The library examples in README.md import names that exist, and run, and
its command lines parse."""

import importlib
import pathlib
import re
import shlex

from rae import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# ``from rae.x import a, b`` on one line, or ``from rae.x import (...)``
# across several.
IMPORT = re.compile(r"^from (rae(?:\.\w+)*) import (\([^)]*\)|[^\n]*)", re.MULTILINE)
# A fenced block and its label; each match consumes its closing fence, so
# a closing fence is never read as an opening one.
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)

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
    blocks = [body for label, body in FENCE.findall(README.read_text(encoding="utf-8"))
              if label == "python"]
    assert len(blocks) >= 2, "README.md has no python examples"
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_example"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def readme_command_lines():
    """Every ``rae ...`` line of README's unlabelled code fences, with
    ``\\`` continuations joined."""
    lines = []
    for label, body in FENCE.findall(README.read_text(encoding="utf-8")):
        if not label:
            lines += [line for line in body.replace("\\\n", " ").splitlines()
                      if line.startswith("rae ")]
    return lines


def test_readme_command_lines_parse(monkeypatch):
    """Every command line README shows parses, with every ``cmd_*`` stubbed
    so that nothing runs: a flag renamed or dropped from the parser that
    README still shows fails here."""
    lines = readme_command_lines()
    assert len(lines) >= 6, "README.md shows too few rae command lines"
    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args: 0)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
