"""Fixtures shared by the test files."""

import importlib
import pathlib
import sys

import pytest


@pytest.fixture
def kfbench_checks(monkeypatch):
    # the benchmark's own output checks, read only: no bytecode is written
    # next to them
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "kfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("checks")
