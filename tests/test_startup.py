"""What importing the package costs, and the light result types that keep it small.

``ChargeChain``, ``CyclageGraph`` and ``VerificationReport`` are namedtuple
subclasses, so the import needs neither ``dataclasses`` nor ``typing``.  The
tests below pin what they keep from the frozen dataclasses they replace, and
pass on either.
"""

import ast
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from symplectic_kf.cyclage import charge_chain, component
from symplectic_kf.recurrences import verify_conjecture
from symplectic_kf.tableaux import parse_tableau

ROOT = Path(__file__).resolve().parent.parent

# stdlib modules the package never calls, each of which pulls in more
# (dataclasses -> inspect -> ast, dis, tokenize; typing -> re, contextlib)
NOT_IMPORTED = ("typing", "dataclasses", "inspect", "re", "enum", "ast")


def test_import_loads_no_unused_stdlib_modules():
    # -I -S as the benchmark worker runs: no site, no user paths, so only
    # what the package itself imports shows up
    code = "import sys; sys.path.insert(0, 'src'); import symplectic_kf; print(sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        check=True,
    )
    loaded = set(ast.literal_eval(proc.stdout))
    assert "symplectic_kf" in loaded
    assert loaded.isdisjoint(NOT_IMPORTED), sorted(loaded.intersection(NOT_IMPORTED))


SAMPLES = {
    "ChargeChain": charge_chain(parse_tableau("-3,-2,1;-3,-1"), 3),
    "CyclageGraph": component(parse_tableau("-2,-1;1,2")),
    "VerificationReport": verify_conjecture((2, 1, 0), (1, 0, 0), 3),
}

FIELDS = {
    "ChargeChain": ("start", "steps", "terminal", "p"),
    "CyclageGraph": ("vertices", "edges"),
    "VerificationReport": ("lam", "mu", "n", "k_definitional", "k_charge", "tableau_charges"),
}


def _fields(name):
    """The sample's fields by name, in order."""
    return {field: getattr(SAMPLES[name], field) for field in FIELDS[name]}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_keep_their_order(name):
    value = SAMPLES[name]
    assert type(value).__name__ == name
    assert type(value)(*_fields(name).values()) == value


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_pickle_round_trip(name):
    # the verify pool sends reports between processes by pickle
    value = SAMPLES[name]
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_fields_compare_and_hash_equal(name):
    value = SAMPLES[name]
    twin = type(value)(**_fields(name))
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)
    assert type(value)(**{**_fields(name), FIELDS[name][-1]: None}) != value


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_attribute_assignment_raises(name):
    value = SAMPLES[name]
    with pytest.raises(AttributeError):
        setattr(value, FIELDS[name][0], None)
    with pytest.raises(AttributeError):
        value.note = "extra"


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_names_each_field(name):
    fields = ", ".join(f"{field}={value!r}" for field, value in _fields(name).items())
    assert repr(SAMPLES[name]) == f"{name}({fields})"

