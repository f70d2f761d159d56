"""kostka_def and charge_kostka against the committed golden table.

The table, ``data/kostka_golden.txt``, holds every nonzero K_{lam,mu} for
dominant weights of rank n <= 4 and size <= 8 as the oracle gave them when
the file was made; ``make_kostka_golden.py`` remakes it.  A pair of those
weights that is not in the table has K_{lam,mu} = 0.
"""

import pathlib
import sys

from symplectic_kf import charge_kostka, kostka_def

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
