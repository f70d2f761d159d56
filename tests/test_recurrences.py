import collections
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from make_kostka_golden import dominant_weights
from symplectic_kf import cli, recurrences
from symplectic_kf.algebra import in_positive_root_cone, is_dominant
from symplectic_kf.crystal import is_highest, word_weight
from symplectic_kf.cyclage import charge, charge_chain, reduce
from symplectic_kf.kostant import kostka_def, q_kostant
from symplectic_kf.qpoly import QPolynomial
from symplectic_kf.recurrences import (
    charge_kostka,
    kostka_column_rec,
    kostka_morris,
    kostka_row,
    pieri,
    verify_conjecture,
    verify_fundamental_conjecture,
)
from symplectic_kf.tableaux import conjugate_heights, enumerate_tableaux, reading


def test_pieri_fixtures():
    assert pieri((0,), 1, 1) == {(1,): 1}
    assert pieri((1,), 1, 1) == {(2,): 1, (0,): 1}
    assert pieri((1, 0), 1, 2) == {(2, 0): 1, (1, 1): 1, (0, 0): 1}
    # memoised, yet each call hands out its own dict
    pieri((1, 0), 1, 2).clear()
    assert pieri((1, 0), 1, 2) == {(2, 0): 1, (1, 1): 1, (0, 0): 1}


def highest_tableau_reading(gamma, n):
    cols = tuple(tuple(range(-n, -n + h)) for h in conjugate_heights(gamma))
    return reading(cols)


def pieri_brute_force(gamma, r, n):
    """Count highest-weight vertices b_gamma . L over the row crystal directly."""
    b = highest_tableau_reading(gamma, n)
    out = {}
    for ks in itertools.product(range(r + 1), repeat=2 * n):
        if sum(ks) != r:
            continue
        kbar, kun = ks[:n], ks[n:]
        L = []
        for i in range(n, 0, -1):
            L.extend([i] * kun[i - 1])
        for i in range(1, n + 1):
            L.extend([-i] * kbar[i - 1])
        w = b + tuple(L)
        if is_highest(w, n):
            lam = word_weight(w, n)
            out[lam] = out.get(lam, 0) + 1
    return out


def test_pieri_matches_crystal_brute_force():
    for n in (1, 2):
        for gamma in dominant_weights(n, 3):
            for r in range(4):
                assert pieri(gamma, r, n) == pieri_brute_force(gamma, r, n), (
                    gamma,
                    r,
                )


def reference_pieri_count(gamma, r, n):
    """The Pieri count as a filter over every composition of r into 2n parts."""
    out = {}
    for ks in recurrences._compositions(r, 2 * n):
        kbar, kun = ks[:n], ks[n:]  # k_ibar, k_i indexed by i-1
        lam = [0] * n
        for i in range(1, n + 1):
            lam[n - i] = gamma[n - i] - kun[i - 1] + kbar[i - 1]
        if lam[n - 1] - kbar[0] < 0:
            continue
        if any(lam[n - i] > lam[n - i - 1] - kbar[i] for i in range(1, n)):
            continue
        if any(
            lam[n - i] - kbar[i - 1] < lam[n - i + 1] + kun[i - 2] - kbar[i - 2]
            for i in range(2, n + 1)
        ):
            continue
        key = tuple(lam)
        if is_dominant(key):
            out[key] = out.get(key, 0) + 1
    return out


def test_pieri_count_matches_composition_filter():
    # every dominant gamma with entries <= 5 at n = 1..3, and r <= 8
    for n in (1, 2, 3):
        for gamma in itertools.combinations_with_replacement(range(5, -1, -1), n):
            for r in range(9):
                assert recurrences._pieri_count(gamma, r, n) == reference_pieri_count(
                    gamma, r, n
                ), (gamma, r)


def test_pieri_multiplicity_can_exceed_one():
    # the product is not multiplicity free in general
    assert any(
        m > 1 for mults in (pieri((2, 1), r, 2) for r in range(4)) for m in mults.values()
    )


def test_pieri_rejects_non_dominant():
    with pytest.raises(ValueError):
        pieri((1, 2), 1, 2)


# every route that takes a weight checks it with algebra.check_weight: the
# wrong length, an increasing weight, a negative last part, and rank 0
BAD_WEIGHTS = [((1, 0, 0), 2), ((0, 1), 2), ((1, -1), 2), ((), 0)]
BAD_WEIGHT_IDS = ["length", "increasing", "negative", "rank-0"]


@pytest.mark.parametrize("bad, n", BAD_WEIGHTS, ids=BAD_WEIGHT_IDS)
def test_routes_reject_bad_weights(bad, n):
    zero = (0,) * n
    match = r"is not a dominant rank-\d weight" if n else "rank must be at least 1"
    for call in (
        lambda: kostka_def(bad, zero),
        lambda: kostka_def(zero, bad),
        lambda: kostka_morris(bad, zero, n),
        lambda: kostka_morris(zero, bad, n),
        lambda: kostka_row(2, bad, n),
        lambda: pieri(bad, 1, n),
        lambda: charge_kostka(bad, zero, n),
        lambda: charge_kostka(zero, bad, n),
        lambda: verify_conjecture(bad, zero, n),
        lambda: verify_conjecture(zero, bad, n),
    ):
        with pytest.raises(ValueError, match=match):
            call()


# entries that are not ints, integral in value or not: kostka_def used to
# return 0 for (1.5, 0) and raise TypeError from inside the DP for (2.0, 0);
# q_kostant returned 0 for (1.5, 0), and enumerate_tableaux listed tableaux
# for (2.0, 0) as mu and (2, 0.0) as lam
@pytest.mark.parametrize(
    "bad",
    [(1.5, 0), (2.0, 0), (Fraction(3, 2), 0), (Fraction(2), 0), (2, 0.0)],
    ids=["float", "integral-float", "fraction", "integral-fraction", "float-zero"],
)
def test_routes_reject_non_int_weights(bad):
    zero = (0, 0)
    match = re.escape(f"{bad} is not a weight: its entries must be ints")
    for call in (
        lambda: kostka_def(bad, zero),
        lambda: kostka_def(zero, bad),
        lambda: kostka_morris(bad, zero, 2),
        lambda: kostka_morris(zero, bad, 2),
        lambda: kostka_row(2, bad, 2),
        lambda: pieri(bad, 1, 2),
        lambda: charge_kostka(bad, zero, 2),
        lambda: charge_kostka(zero, bad, 2),
        lambda: verify_conjecture(bad, zero, 2),
        lambda: verify_conjecture(zero, bad, 2),
        lambda: q_kostant(bad),
        lambda: enumerate_tableaux(bad, zero, 2),
        lambda: enumerate_tableaux(zero, bad, 2),
    ):
        with pytest.raises(ValueError, match=match):
            call()


def test_charge_kostka_rejects_non_dominant_weight():
    # both used to return a number: 1 and 0
    for lam, mu in (((2, 0), (0, 2)), ((1, 0), (0, 3))):
        with pytest.raises(ValueError, match=r"\(0, \d\) is not a dominant rank-2 weight"):
            charge_kostka(lam, mu, 2)


@pytest.mark.parametrize("method", ["def", "morris", "row", "charge"])
@pytest.mark.parametrize("bad, n", BAD_WEIGHTS, ids=BAD_WEIGHT_IDS)
def test_cli_kostka_rejects_bad_weights(bad, n, method, capsys):
    bad_text = ",".join(map(str, bad)) or "0"
    zero_text = ",".join(["0"] * max(n, 1))
    for lam, mu in ((bad_text, zero_text), (zero_text, bad_text)):
        argv = ["kostka", "--method", method, "-n", str(n), "--lambda", lam, "--mu", mu]
        assert cli.run(argv) == (1, "")
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "call",
    [
        lambda n: pieri((), 1, n),
        lambda n: kostka_row(0, (), n),
        lambda n: kostka_morris((), (), n),
        # kostka_def reads its rank off lam: () for both n
        lambda n: kostka_def((0,) * n, (0,) * n),
        lambda n: enumerate_tableaux((), (), n),
        lambda n: charge_kostka((), (), n),
        lambda n: verify_conjecture((), (), n),
        lambda n: charge((), n),
        lambda n: charge_chain((), n),
        lambda n: reduce((), n),
    ],
    ids=[
        "pieri",
        "kostka_row",
        "kostka_morris",
        "kostka_def",
        "enumerate_tableaux",
        "charge_kostka",
        "verify_conjecture",
        "charge",
        "charge_chain",
        "reduce",
    ],
)
@pytest.mark.parametrize("n", [0, -1])
def test_rank_below_one_is_rejected(call, n):
    with pytest.raises(ValueError, match="rank must be at least 1"):
        call(n)


def test_morris_fixtures():
    assert kostka_morris((2, 0), (1, 1), 2) == QPolynomial.q_power(1)
    assert kostka_morris((3, 1), (3, 1), 2) == QPolynomial.one()
    with pytest.raises(ValueError):
        kostka_morris((2, 2), (1, 1), 2)  # hypothesis fails


def test_morris_equals_definitional():
    for n in (2, 3):
        for nu in dominant_weights(n, 5):
            for mu in dominant_weights(n, 5):
                if mu[0] < nu[1] or nu[0] < mu[0]:
                    continue
                assert kostka_morris(nu, mu, n) == kostka_def(nu, mu), (nu, mu)


def test_morris_memo_keeps_the_hypothesis_check():
    # the rank-3 recurrence stores K_{(2,2),(1,1)} from kostka_def, where the
    # rank-2 hypothesis fails; asking for it at rank 2 must still be refused
    kostka_morris((2, 2, 2), (2, 1, 1), 3)
    before = recurrences._kostka_terms.cache_info()
    recurrences._kostka_terms((2, 2), (1, 1), 2)
    after = recurrences._kostka_terms.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    with pytest.raises(ValueError, match="hypothesis"):
        kostka_morris((2, 2), (1, 1), 2)


def test_morris_results_do_not_share_the_memo():
    first = kostka_morris((4, 2, 0), (2, 0, 0), 3)
    first.coefficients()[0] = 99
    assert kostka_morris((4, 2, 0), (2, 0, 0), 3) == first == kostka_def((4, 2, 0), (2, 0, 0))
    assert kostka_morris((4, 2, 0), (2, 0, 0), 3) is not first


@st.composite
def morris_pairs(draw):
    """(nu, mu, n) with n = 2..4, parts <= 4, mu_nbar >= nu_(n-1)bar and
    |nu| - |mu| even: the pairs where the recurrence itself runs."""
    n = draw(st.integers(2, 4))
    weight = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
        lambda v: tuple(sorted(v, reverse=True))
    )
    nu = draw(weight)
    mu = draw(weight.filter(lambda v: v[0] >= nu[1] and (sum(nu) - sum(v)) % 2 == 0))
    return nu, mu, n


@settings(derandomize=True, max_examples=80, deadline=None)
@given(morris_pairs())
def test_morris_equals_definitional_drawn(pair):
    nu, mu, n = pair
    assert kostka_morris(nu, mu, n) == kostka_def(nu, mu)


def test_morris_specializes_to_row_formula():
    for n in (2, 3):
        for p in range(5):
            nu = (p,) + (0,) * (n - 1)
            for mu in dominant_weights(n, p):
                if mu[0] < nu[1]:
                    continue
                assert kostka_morris(nu, mu, n) == kostka_row(p, mu, n), (p, mu, n)


@st.composite
def row_pairs(draw):
    """(p, mu, n) with n <= 5, p <= 8 and mu dominant of size at most p."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, 8))
    parts = []
    for _ in range(n):
        parts.append(draw(st.integers(0, p - sum(parts))))
    return p, tuple(sorted(parts, reverse=True)), n


@settings(derandomize=True, max_examples=150, deadline=None)
@given(row_pairs())
def test_row_formula_equals_definitional_drawn(case):
    p, mu, n = case
    assert kostka_row(p, mu, n) == kostka_def((p,) + (0,) * (n - 1), mu)


def test_row_fixtures():
    assert kostka_row(2, (0, 0), 2) == QPolynomial({1: 1, 3: 1})
    assert kostka_row(2, (0, 0, 0), 3) == QPolynomial({1: 1, 3: 1, 5: 1})
    assert kostka_row(4, (4, 0, 0), 3) == QPolynomial.one()
    assert kostka_row(3, (2, 0), 2).is_zero()  # parity


def test_row_equals_definitional():
    for n in (1, 2, 3):
        for p in range(6):
            lam = (p,) + (0,) * (n - 1)
            for mu in dominant_weights(n, p):
                assert kostka_row(p, mu, n) == kostka_def(lam, mu), (p, mu, n)


def test_row_counts_fiber():
    # value at q=1 counts the letter-count tuples of the row crystal fiber
    for n in (1, 2, 3):
        for p in range(5):
            for mu in dominant_weights(n, p):
                count = kostka_row(p, mu, n)(1)
                brute = 0
                for kbar in itertools.product(range(p + 1), repeat=n):
                    kun = [kbar[i - 1] - mu[n - i] for i in range(1, n + 1)]
                    if all(k >= 0 for k in kun) and sum(kbar) + sum(kun) == p:
                        brute += 1
                assert count == brute


def test_column_rec_fixtures():
    assert kostka_column_rec(2, 3) == QPolynomial({2: 1, 4: 1})
    assert kostka_column_rec(2, 2) == QPolynomial({2: 1})
    assert kostka_column_rec(3, 3) == kostka_def((1, 1, 1), (0, 0, 0))
    assert kostka_column_rec(4, 4) == kostka_def((1, 1, 1, 1), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        kostka_column_rec(4, 3)


def test_column_rec_matches_definitional_columns():
    for n in (2, 3, 4):
        for p in range(2, n + 1):
            lam = (1,) * p + (0,) * (n - p)
            assert kostka_column_rec(p, n) == kostka_def(lam, (0,) * n), (p, n)


def test_charge_kostka_fixtures():
    assert charge_kostka((2, 2, 0), (0, 0, 0), 3) == QPolynomial(
        {2: 1, 4: 2, 6: 2, 8: 1}
    )
    assert charge_kostka((2, 1, 1, 1), (1, 1, 1, 0), 4) == QPolynomial(
        {1: 1, 2: 1, 3: 1, 4: 1}
    )
    assert charge_kostka((1, 1), (1, 1), 2) == QPolynomial.one()


@st.composite
def small_dominant_pairs(draw):
    """(lam, mu, n) with n <= 4, parts <= 3, |lam| <= 6 and |lam| - |mu| even."""
    n = draw(st.integers(1, 4))
    weight = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda v: tuple(sorted(v, reverse=True))
    )
    lam = draw(weight.filter(lambda v: sum(v) <= 6))
    mu = draw(weight.filter(lambda v: sum(v) <= sum(lam) and (sum(lam) - sum(v)) % 2 == 0))
    return lam, mu, n


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_dominant_pairs())
def test_charge_kostka_equals_definitional_drawn(pair):
    lam, mu, n = pair
    assert charge_kostka(lam, mu, n) == kostka_def(lam, mu)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_dominant_pairs())
def test_reduce_is_the_chain_before_its_first_cocyclage(pair):
    lam, mu, n = pair
    for tab in enumerate_tableaux(lam, mu, n):
        before = tab
        for t, kind in charge_chain(tab, n).steps:
            if kind == "cocyclage":
                break
            before = t
        assert reduce(tab, n)[0] == before


def test_verify_conjecture_reports():
    report = verify_conjecture((2, 2, 0), (0, 0, 0), 3)
    assert report.verdict == "match"
    assert sorted(c for _, c in report.tableau_charges) == [2, 4, 4, 6, 6, 8]

    report = verify_conjecture((2, 1, 1, 1), (1, 1, 1, 0), 4)
    assert report.verdict == "match"
    assert sorted(c for _, c in report.tableau_charges) == [1, 2, 3, 4]

    report = verify_conjecture((2, 1), (2, 1), 2)
    assert report.verdict == "match"
    assert [c for _, c in report.tableau_charges] == [0]


@pytest.mark.parametrize("n, mw", [(1, 8), (2, 8), (3, 6), (4, 5), (5, 4)])
def test_verify_conjecture_cut_is_exact(n, mw):
    # verify_conjecture answers a pair with lam - mu outside the root cone
    # itself; its record must be the one the public routes give run apart,
    # and the enumeration must find no tableau for such a pair
    weights = list(cli._dominant_vectors(n, mw))
    cut = 0
    for lam in weights:
        for mu in weights:
            tabs = enumerate_tableaux(lam, mu, n)
            listing = tuple((t, charge(t, n)) for t in tabs)
            k_charge = QPolynomial(collections.Counter(c for _, c in listing))
            apart = recurrences.VerificationReport(
                lam, mu, n, kostka_def(lam, mu), k_charge, listing
            )
            assert verify_conjecture(lam, mu, n).to_record() == apart.to_record(), (lam, mu)
            if not in_positive_root_cone(tuple(a - b for a, b in zip(lam, mu))):
                cut += 1
                assert tabs == [], (lam, mu)
    assert 0 < cut < len(weights) ** 2


def test_verify_conjecture_rejects_wrong_length_weight():
    with pytest.raises(ValueError):
        verify_conjecture((2, 0), (0, 0), 3)


def test_report_serialization():
    report = verify_conjecture((1, 1), (0, 0), 2)
    text = report.to_text()
    assert "lambda: 1,1" in text
    assert "verdict: match" in text
    assert text.count("tableau:") == len(report.tableau_charges)
    record = report.to_record()
    assert record["verdict"] == "match"
    assert record["definitional"] == {"2": 1}


def test_fundamental_conjecture_height_two():
    for n in (2, 3, 4, 5):
        report = verify_fundamental_conjecture(n - 2, n)
        assert report.verdict == "match"
        want = QPolynomial({2 * i: 1 for i in range(1, n)})
        assert report.k_definitional == want
        assert report.k_charge == want


def test_fundamental_conjecture_height_four():
    report = verify_fundamental_conjecture(0, 4)
    assert report.k_definitional == report.k_charge  # match at n=4, height 4
    assert report.verdict == "match"


def test_fundamental_conjecture_parity_guard():
    with pytest.raises(ValueError):
        verify_fundamental_conjecture(0, 3)


@pytest.mark.parametrize("p, n", [(5, 3), (-1, 3), (7, 5)])
def test_fundamental_conjecture_rejects_p_out_of_range(p, n):
    with pytest.raises(ValueError, match=f"p={p}, n={n}"):
        verify_fundamental_conjecture(p, n)


def test_fundamental_conjecture_empty_column():
    report = verify_fundamental_conjecture(3, 3)
    assert report.tableau_charges == (((), 0),)
    assert report.verdict == "match"
