"""Byte stability of the README's command-line examples: each `fplocal`
line of the sh block under "## Command line" runs through fplocal.cli.main
in-process, and its exit code and the sha256 of its stdout must equal the
table below.

The commands are parsed from the README, not copied, so an edited example
fails here until its row is recorded again.
"""

import hashlib
import shlex
from pathlib import Path

import pytest

from fplocal.cli import main

ROOT = Path(__file__).resolve().parent.parent

# command line -> (exit code, sha256 of stdout)
EXPECTED = {
    'fplocal gb --p 2 --n 2 --gens "x1^2 + x2, x1*x2"':
        (0, "9def9ddd743b8d9c08c6f088c78ec4e043ea25a83a1c543a7ccdce76e2ee3200"),
    'fplocal saturate --p 2 --n 2 --gens "x1^2, x1*x2"':
        (0, "7a33609b5776ede4cdb19f92ae9f640859c3e117b06024ae70db623b5353aa0a"),
    'fplocal frobdecomp --p 2 --n 2 --poly "x1^3 + x1*x2" --l 1':
        (0, "8b1f4484e9e9fc3388c3c5b3df5f7e36857c9c3ed0f994b497a8a3829c700301"),
    'fplocal koszul --p 5 --n 2 --gens "x1, x2"':
        (0, "4a94460c0321003d5fc38c21d6e9f909031a137c5c1c7e507c21bdcd56dc3809"),
    'fplocal cohomology --p 2 --n 3 --gens "x1, x2" --i 2':
        (0, "1e307cce96434ca996bfbcdd2d59cc2f4bf01c41826f26d75bb912c62805ccad"),
    'fplocal resolve --p 2 --n 2 --gens "x1^2, x1*x2"':
        (0, "55d05cdf56ed4d600ceb598a6864325e4050d92a019e9f66a810b79c8b7949b0"),
    'fplocal pd --p 2 --n 2 --gens "x1^2, x1*x2"':
        (0, "93f94051a8659ecf3a5fea8252f66c79677817a1d55f76afb62c00511cb79d68"),
    'fplocal check-q1 --p 2 --n 2 --gens "x1^2, x1*x2"':
        (1, "9c3259cd4c7ec2d005935df9a98df39feab08c1343836de37b81aa04c0e702c2"),
    'fplocal check-q1 --p 2 --n 2 --gens "x1^2 + 1, x1*x2 + x1 + x2 + 1" --point 1,1':
        (1, "fcc81ebb23f3b7b09cf47c1caa1bceac559ac4ce25cceeaafb01a9ae7ade8353"),
    'fplocal check-topvan --p 2 --n 2 --gens "x1^2, x1*x2"':
        (0, "50c864b3f0412cfddd2f652f3b49203a9b826912d3db45b6594a8dae287f7e2a"),
    'fplocal check-propvan --p 2 --n 2 --gens "x1" --i 1':
        (0, "c523ee6e8c5947a59d9927a3699a73fbc47f49ec70daae5c0fd20bf06150bc2c"),
    'fplocal td-check --p 2 --n 1 --hpoly "x1^3" --gpoly "x1 + 1" --l 2':
        (0, "844439b385edde0961d8cfc0aeb949ff8d6afaf41703947dd32ac39f5ceccd5c"),
    'fplocal campaign --p 2 --n 3 --degrees 1,1 --trials 100 --seed demo':
        (0, "c93c8294878172727668d324fef3b0437790717905b65c9dd0967a6bd34dc752"),
}


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.strip().splitlines() if line.startswith("fplocal ")]


COMMANDS = readme_commands()


def test_every_example_has_a_recorded_digest():
    assert sorted(COMMANDS) == sorted(EXPECTED)


@pytest.mark.parametrize("command", COMMANDS, ids=[c.split()[1] for c in COMMANDS])
def test_example_output_matches_record(command, capsys):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == EXPECTED[command]
