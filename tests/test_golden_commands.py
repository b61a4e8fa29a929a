"""The stdout of a fixed set of subcommands, checked token by token against a
committed copy.

Text between numbers must match exactly; numbers go through the report
comparator at REL_ANALYTIC.  Regenerate after an intended change with
    PYTHONPATH=src python tests/test_golden_commands.py
and state the changed outputs and their largest deviations with the change.
"""
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from holomem import cli
from test_golden import REL_ANALYTIC, _compare

GOLDEN = Path(__file__).parent / "golden" / "commands.json"

COMMANDS = (
    "eit --points 41",
    "eit --od 20 --rabi-hz 5e6 --gamma-gs-hz 1e5 --points 21",
    "capacity",
    "chsh --state input",
    "chsh --state bell",
    "chsh --state werner:0.8 --convention textbook",
    "crosstalk --seed 0",
    "crosstalk --seed 1",
    "crosstalk --seed 4096",
    "fit --kind exp",
    "fit --kind vis --tau-s 2.8e-6",
    "fit --kind vis --tau-s 2.8e-6 --float-tau",
)

# A number not glued to a name (the 0 of "eta0" is text).
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


def _tokens(text: str) -> list:
    """Text runs as strings and numbers as int or float, in order."""
    tokens, at = [], 0
    for match in _NUMBER.finditer(text):
        word = match.group()
        tokens += [text[at:match.start()], int(word) if word.lstrip("-").isdigit() else float(word)]
        at = match.end()
    return tokens + [text[at:]]


def _stdout(command: str) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(command.split()) == cli.EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_command_output_matches_golden(command):
    golden = json.loads(GOLDEN.read_text())[command]
    problems = []
    _compare(_tokens(golden), _tokens(_stdout(command)), "", REL_ANALYTIC, problems)
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: _stdout(c) for c in COMMANDS}, indent=2) + "\n")
