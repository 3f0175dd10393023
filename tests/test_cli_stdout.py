"""Byte-for-byte pins of the CLI's stdout.

Each file in ``tests/data/cli/`` starts with the command line it pins
(``$ repro <args>``); the rest of the file is that command's exact
stdout at an 80-column terminal.  Substring checks in ``test_cli.py``
would let a reordered or reformatted report through; these do not.

Regenerate a file only when a change to the output is intended:
``COLUMNS=80 python -m repro <args>`` and keep the ``$`` line.
"""

import shlex
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data" / "cli"
PINNED = sorted(DATA.glob("*.txt"))


def _load(path: Path):
    command, _, expected = path.read_text(encoding="utf-8").partition("\n")
    assert command.startswith("$ repro "), path.name
    return shlex.split(command[len("$ repro "):]), expected


def test_pins_cover_every_farm_backed_command():
    commands = {_load(path)[0][0] for path in PINNED}
    assert {"cluster", "forecast", "pue", "goodput", "overhead",
            "taxonomy", "resilience"} <= commands


@pytest.mark.parametrize("path", PINNED, ids=lambda path: path.stem)
def test_stdout_matches_pin(path, capsys, monkeypatch):
    argv, expected = _load(path)
    monkeypatch.setenv("COLUMNS", "80")
    if "--help" in argv:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
    else:
        assert main(argv) == 0
    assert capsys.readouterr().out == expected
