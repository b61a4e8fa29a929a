"""The stdout of a fixed set of subcommands, checked token by token against a
committed copy.

Text between numbers must match exactly; numbers go through the report
comparator at REL_ANALYTIC.  The `fit --kind vis` commands read the
visibility CSV that `write_visibility_csv` writes.  Regenerate after an
intended change with
    PYTHONPATH=src python tests/test_golden_commands.py
and state the changed outputs and their largest deviations with the change.
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from holomem import channel, cli, measure
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


def write_visibility_csv(directory: Path) -> str:
    """The bundled channel's visibility decay V(t) from the bundled input state's
    mean visibility, at 12 times over 8 us with 5 % Gaussian noise (numpy
    default_rng seed 773) and sigma = 0.05 V(t): the recipe of the bundled
    efficiency CSV."""
    sc = cli.load_scenario(cli.default_config())
    v0 = float(measure.visibilities(channel.input_state(sc.source)).mean())
    t = np.linspace(0.0, 8e-6, 12)
    y_true = np.array([channel.visibility_decay(sc.channel, v0, x) for x in t.tolist()])
    y = y_true * (1.0 + 0.05 * np.random.default_rng(773).standard_normal(len(t)))
    path = directory / "visibility_decay.csv"
    np.savetxt(path, np.column_stack([t, y, 0.05 * y_true]), fmt="%.6e", delimiter=",",
               header="t_s,y,sigma", comments="")
    return str(path)


def _stdout(command: str, vis_csv: str) -> str:
    argv = command.split() + (["--data", vis_csv] if "--kind vis" in command else [])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == cli.EXIT_OK
    return out.getvalue()


@pytest.fixture(scope="module")
def vis_csv(tmp_path_factory) -> str:
    return write_visibility_csv(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("command", COMMANDS)
def test_command_output_matches_golden(command, vis_csv):
    golden = json.loads(GOLDEN.read_text())[command]
    problems = []
    _compare(_tokens(golden), _tokens(_stdout(command, vis_csv)), "", REL_ANALYTIC, problems)
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        vis = write_visibility_csv(Path(tmp))
        GOLDEN.write_text(json.dumps({c: _stdout(c, vis) for c in COMMANDS}, indent=2) + "\n")
