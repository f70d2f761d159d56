"""kostka_def and charge_kostka against the committed golden table.

The table, ``data/kostka_golden.txt``, holds every nonzero K_{lam,mu} for
dominant weights of rank n <= 4 and size <= 8 as the oracle gave them when
the file was made; ``make_kostka_golden.py`` remakes it.  A pair of those
weights that is not in the table has K_{lam,mu} = 0.
"""

import importlib
import pathlib
import sys

import pytest

from symplectic_kf import charge_kostka, kostka_def
from symplectic_kf.algebra import in_positive_root_cone

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from make_kostka_golden import GOLDEN, MAX_RANK, MAX_WEIGHT, dominant_weights  # noqa: E402


def load_golden():
    table = {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("#"):
            continue
        n, lam, mu, *terms = line.split()
        key = (
            int(n),
            tuple(int(x) for x in lam.split(",")),
            tuple(int(x) for x in mu.split(",")),
        )
        table[key] = {int(e): int(c) for e, c in (t.split(":") for t in terms)}
    return table


GOLDEN_TABLE = load_golden()


def all_pairs(ranks):
    for n in ranks:
        weights = dominant_weights(n, MAX_WEIGHT)
        for lam in weights:
            for mu in weights:
                yield n, lam, mu


def test_golden_table_covers_every_rank():
    assert {n for n, _, _ in GOLDEN_TABLE} == set(range(1, MAX_RANK + 1))
    assert set(GOLDEN_TABLE) <= set(all_pairs(range(1, MAX_RANK + 1)))


def test_kostka_def_matches_golden_table():
    for n, lam, mu in all_pairs(range(1, MAX_RANK + 1)):
        want = GOLDEN_TABLE.get((n, lam, mu), {})
        assert kostka_def(lam, mu).coefficients() == want, (lam, mu)


def test_charge_kostka_matches_golden_table():
    for n, lam, mu in all_pairs(range(1, MAX_RANK + 1)):
        want = GOLDEN_TABLE.get((n, lam, mu), {})
        assert charge_kostka(lam, mu, n).coefficients() == want, (lam, mu)


@pytest.fixture
def kfbench_checks(monkeypatch):
    # the benchmark's own output checks, read only: no bytecode is written
    # next to them
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "kfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("checks")


def test_in_cone_pairs_are_monic_of_the_expected_degree(kfbench_checks):
    # the converse of the oracle's cone cut: with lam - mu in the cone,
    # K_{lam,mu} is monic of degree <lam - mu, rho^vee>, so nonzero; on the
    # golden table and on the benchmark's 144 rank-5 pairs
    rank5 = dominant_weights(5, 4)
    pairs = list(all_pairs(range(1, MAX_RANK + 1)))
    pairs += [(5, lam, mu) for lam in rank5 for mu in rank5]
    inside = 0
    for n, lam, mu in pairs:
        if not in_positive_root_cone(tuple(a - b for a, b in zip(lam, mu))):
            continue
        inside += 1
        coeffs = kostka_def(lam, mu).coefficients()
        degree = kfbench_checks.expected_degree(lam, mu)
        assert max(coeffs, default=None) == degree and coeffs[degree] == 1, (lam, mu)
    assert inside == len(GOLDEN_TABLE) + 45
