"""kostka_def and charge_kostka against the committed golden table.

The table, ``data/kostka_golden.txt``, holds every nonzero K_{lam,mu} for
dominant weights of rank n <= 4 and size <= 8 as the oracle gave them when
the file was made; ``make_kostka_golden.py`` remakes it.  A pair of those
weights that is not in the table has K_{lam,mu} = 0.
"""

import pathlib
import sys

import pytest

from symplectic_kf import (
    charge_kostka,
    clear_caches,
    kostant,
    kostka_def,
    kostka_morris,
    q_kostant,
)
from symplectic_kf.algebra import in_positive_root_cone, rho
from symplectic_kf.qpoly import QPolynomial

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


def assert_stored_form(p, where):
    # what QPolynomial keeps for a polynomial: int exponents >= 0 in
    # ascending order and int coefficients, none of them zero; the exact
    # routes wrap their decoded dicts in it as they are
    stored = p._coeffs
    exponents = list(stored)
    assert all(type(e) is int and e >= 0 for e in exponents), where
    assert exponents == sorted(exponents), where
    assert all(type(c) is int and c for c in stored.values()), where
    rebuilt = QPolynomial(p.coefficients())
    assert rebuilt == p and hash(rebuilt) == hash(p), where


def test_exact_routes_return_the_stored_form():
    betas = set()
    for n, lam, mu in GOLDEN_TABLE:
        assert_stored_form(kostka_def(lam, mu), ("def", lam, mu))
        if n == 1 or mu[0] >= lam[1]:
            assert_stored_form(kostka_morris(lam, mu, n), ("morris", lam, mu))
        assert_stored_form(charge_kostka(lam, mu, n), ("charge", lam, mu))
        lam_rho = tuple(a + b for a, b in zip(lam, rho(n)))
        mu_rho = tuple(a + b for a, b in zip(mu, rho(n)))
        betas.update(beta for _, beta in kostant._weyl_terms(lam_rho, mu_rho))
    for beta in betas:
        assert_stored_form(q_kostant(beta), ("q_kostant", beta))
    assert len(betas) > 1000


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


def test_narrow_slots_raise_instead_of_decoding_wrong(monkeypatch):
    # With 6-bit slots a signed Weyl sum reads back only while its terms'
    # q-Kostant values sum below 2^5, and a nonnegative polynomial only while
    # its value at q = 1 is below 2^6.  The memos hold packed values, so they
    # are emptied on both sides of the change of width.
    bounds, kostant_values = {}, {}
    for n, lam, mu in all_pairs(range(1, MAX_RANK + 1)):
        lam_rho = tuple(a + b for a, b in zip(lam, rho(n)))
        mu_rho = tuple(a + b for a, b in zip(mu, rho(n)))
        bound = 0
        for _, beta in kostant._weyl_terms(lam_rho, mu_rho):
            kostant_values[beta] = q_kostant(beta)
            bound += kostant_values[beta](1)
        bounds[n, lam, mu] = bound
    decoded = dict.fromkeys(("def", "morris", "q_kostant"), 0)
    raised = dict.fromkeys(("def", "morris", "q_kostant"), 0)
    clear_caches()
    monkeypatch.setattr(kostant, "_W", 6)
    try:
        for (n, lam, mu), bound in bounds.items():
            want = GOLDEN_TABLE.get((n, lam, mu), {})
            if bound >= 2**5:
                with pytest.raises(OverflowError, match="6-bit slots"):
                    kostka_def(lam, mu)
                raised["def"] += 1
            else:
                assert kostka_def(lam, mu).coefficients() == want, (lam, mu)
                decoded["def"] += 1
            if n == 1 or mu[0] < lam[1]:
                continue
            if sum(want.values()) >= 2**6:
                with pytest.raises(OverflowError, match="6-bit slots"):
                    kostka_morris(lam, mu, n)
                raised["morris"] += 1
                continue
            # a lower-rank kostka_def term may overflow on its own
            try:
                got = kostka_morris(lam, mu, n)
            except OverflowError:
                continue
            assert got.coefficients() == want, (lam, mu)
            decoded["morris"] += 1
        for beta, value in kostant_values.items():
            if value(1) >= 2**6:
                with pytest.raises(OverflowError, match="6-bit slots"):
                    q_kostant(beta)
                raised["q_kostant"] += 1
            else:
                assert q_kostant(beta) == value, beta
                decoded["q_kostant"] += 1
    finally:
        clear_caches()
    assert decoded == {"def": 4752, "morris": 4626, "q_kostant": 969}
    assert raised == {"def": 444, "morris": 10, "q_kostant": 650}
