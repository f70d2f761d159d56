"""The outputs README documents are what the program prints.

That is the "Command line" block's outputs, and the ``# ...`` comments on the
``print`` lines of the "Caches" Python block.
"""

import contextlib
import io
import pathlib
import shlex

import pytest

import symplectic_kf
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


def caches_block():
    """The Python block of README's "Caches" section."""
    text = README.read_text()
    section = text[text.index("## Caches") :]
    block = section[section.index("```python\n") + len("```python\n") :]
    return block[: block.index("```")]


def test_caches_block_prints_what_it_documents():
    block = caches_block()
    expected = [
        line.split("# ", 1)[1]
        for line in block.splitlines()
        if line.startswith("print(") and "# " in line
    ]
    assert expected
    symplectic_kf.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected
