"""Text-level guard on the command-line surface.

``rae --help``, each subcommand's ``--help`` and a few argparse error lines
are rendered at a fixed width and compared with the transcript in
``cli_help.txt``, so a change to how the parser is declared or built cannot
move a flag, a default or a help line unnoticed.

argparse's layout differs between Python versions; the transcript was
captured with Python 3.11.7 (``CAPTURED_WITH``).  Regenerate it (write
``render_all``'s text over it) only for a deliberate change of the command
line, and say why in CHANGES.md.
"""

import pathlib
import re
import sys

import pytest

from rae.cli import main

CAPTURED_WITH = "3.11.7"
TRANSCRIPT = pathlib.Path(__file__).with_name("cli_help.txt")

# argv -> exit code; each run's stdout and stderr are recorded
INVOCATIONS = (
    (("--help",), 0),
    (("generate", "--help"), 0),
    (("estimate", "--help"), 0),
    (("sweep", "--help"), 0),
    (("energy", "--help"), 0),
    (("fit-lambda", "--help"), 0),
    (("schedule", "--help"), 0),
    (("bogus",), 2),
    ((), 2),
    (("estimate",), 2),
    (("generate",), 2),
    (("schedule", "--seed", "3"), 2),
    (("--bogus", "schedule"), 2),
)


def _render(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == code, argv
    captured = capsys.readouterr()
    return (f"$ {' '.join(('rae', *argv))}\n[stdout]\n{captured.out}"
            f"[stderr]\n{captured.err}")


def _sections(text):
    """The transcript as one block per invocation, keyed by its ``$ rae``
    line."""
    blocks = re.split(r"(?m)^(?=\$ rae)", text)[1:]
    return {block.partition("\n")[0]: block for block in blocks}


@pytest.fixture
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def render_all(capsys):
    return "".join(_render(argv, code, capsys) for argv, code in INVOCATIONS)


def test_help_and_errors_unchanged(fixed_width, capsys):
    expected = _sections(TRANSCRIPT.read_text(encoding="utf-8"))
    actual = _sections(render_all(capsys))
    assert list(actual) == list(expected)
    for header in expected:
        assert actual[header] == expected[header], (
            f"{header!r} differs from the transcript captured with Python "
            f"{CAPTURED_WITH} (running {sys.version.split()[0]})")
