"""The outputs README's "Command line" block documents are what the CLI prints."""

import pathlib
import shlex

import pytest

from symplectic_kf import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def documented_outputs():
    """(command line, expected stdout) for each command in the block that has
    ``# ...`` output lines under it."""
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = section[section.index("```sh\n") + len("```sh\n") :]
    block = block[: block.index("```")]
    cases = []
    out = None  # the output lines of the command directly above
    for line in block.splitlines():
        if line.startswith("symplectic-kf "):
            out = []
            cases.append((line, out))
        elif line.startswith("# ") and out is not None:
            out.append(line[2:])
        else:
            out = None
    return [(line, "\n".join(out) + "\n") for line, out in cases if out]


CASES = documented_outputs()


def test_documented_outputs_are_found():
    # kostka twice, charge, insert and verify
    assert len(CASES) >= 5


@pytest.mark.parametrize("line,expected", CASES, ids=[line for line, _ in CASES])
def test_documented_output(line, expected):
    assert cli.run(shlex.split(line)[1:]) == (0, expected)
