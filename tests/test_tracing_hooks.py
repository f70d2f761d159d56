"""The names the benchmark's tracer wraps stay on the package.

``kfbench/tracing.py`` looks each traced function up by module and attribute
name, and replaces ``QPolynomial``'s arithmetic methods by name.  A name the
package drops would break every ``--trace 1`` run, so an API cut that drops
one fails here.
"""

import importlib
import sys
from pathlib import Path

import pytest

from symplectic_kf.qpoly import QPolynomial

KFBENCH = Path(__file__).resolve().parent.parent / "kfbench"


@pytest.fixture
def tracing(monkeypatch):
    # read the tracer's tables only: no bytecode is written next to it
    monkeypatch.syspath_prepend(str(KFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracing")


def test_traced_functions_resolve(tracing):
    assert tracing.TRACED
    for _, module, attr, _ in tracing.TRACED:
        found = getattr(importlib.import_module(f"symplectic_kf.{module}"), attr, None)
        assert callable(found), f"symplectic_kf.{module}.{attr}"


def test_traced_arithmetic_methods_resolve(tracing):
    _, methods = tracing.ARITH
    assert methods
    for name in methods:
        assert callable(vars(QPolynomial).get(name)), f"QPolynomial.{name}"
