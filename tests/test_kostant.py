import itertools
import random

import pytest

from make_kostka_golden import dominant_weights
from symplectic_kf import cache_sizes, clear_caches, kostant
from symplectic_kf.algebra import act, rho
from symplectic_kf.kostant import (
    PositivityError,
    _weyl_terms,
    in_positive_root_cone,
    kostka_def,
    q_kostant,
)
from symplectic_kf.qpoly import QPolynomial
from weyl_reference import positive_roots, reference_weyl_terms, weyl_group


def brute_force_counts(beta, n):
    """Independent oracle: enumerate multisets of positive roots summing to beta."""
    roots = positive_roots(n)
    rhov = rho(n)

    def height(v):
        return sum(r * x for r, x in zip(rhov, v))

    counts = {}

    def rec(idx, remaining, used):
        if idx == len(roots):
            if not any(remaining):
                counts[used] = counts.get(used, 0) + 1
            return
        h = height(remaining)
        if h < 0:
            return
        a = roots[idx]
        ha = height(a)
        for k in range(h // ha + 1):
            rec(idx + 1, tuple(x - k * a[i] for i, x in enumerate(remaining)), used + k)

    rec(0, tuple(beta), 0)
    return {k: v for k, v in counts.items() if v}


# (idx, remaining) -> exponent -> count, for reference_q_kostant; the rank is len(remaining)
_REFERENCE_MEMO = {}


def reference_q_kostant(beta):
    """The per-root DP the paired one replaced: one step and one memo state per root.

    Steps through the n^2 positive roots in leading-position order, taking
    root idx k times for every k its height allows; once the roots with first
    support p are used up, coordinate p of the remainder must be zero, and
    the remainder must stay in the root cone.
    """
    n = len(beta)
    roots = positive_roots(n)
    first_support = [next(i for i, x in enumerate(r) if x) for r in roots] + [n]
    rhov = rho(n)
    heights = [sum(a * x for a, x in zip(rhov, r)) for r in roots]

    def count(idx, remaining):
        if any(remaining[: first_support[idx]]) or not in_positive_root_cone(remaining):
            return {}
        if idx == len(roots):
            return {0: 1}
        key = (idx, remaining)
        hit = _REFERENCE_MEMO.get(key)
        if hit is not None:
            return hit
        h = sum(a * x for a, x in zip(rhov, remaining))
        out = {}
        for k in range(h // heights[idx] + 1):
            sub = count(idx + 1, tuple(x - k * y for x, y in zip(remaining, roots[idx])))
            for e, c in sub.items():
                out[e + k] = out.get(e + k, 0) + c
        _REFERENCE_MEMO[key] = out
        return out

    return count(0, tuple(beta))


def box_betas(n):
    """Every rank-n beta with entries in -3..5 and |beta|_1 <= 9."""
    return [b for b in itertools.product(range(-3, 6), repeat=n) if sum(map(abs, b)) <= 9]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_q_kostant_matches_per_root_dp_on_box(n):
    for beta in box_betas(n):
        assert q_kostant(beta).coefficients() == reference_q_kostant(beta), beta


def test_q_kostant_matches_per_root_dp_rank5_sample():
    in_cone = [b for b in box_betas(5) if in_positive_root_cone(b)]
    for beta in random.Random(5).sample(in_cone, 400):
        assert q_kostant(beta).coefficients() == reference_q_kostant(beta), beta


def test_memo_holds_no_dead_states():
    # every state the DP builds can be completed, so none counts to zero
    clear_caches()
    for beta in box_betas(4):
        q_kostant(beta)
    kostka_def((2, 2, 1, 1, 0), (0,) * 5)
    assert {len(remaining) for _, remaining in kostant._memo} == {4, 5}
    assert all(count for _, count in kostant._memo.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_count_and_leading_signs(n):
    roots = positive_roots(n)
    assert len(roots) == n * n
    assert len(set(roots)) == n * n
    for r in roots:
        first = next(x for x in r if x)
        assert first > 0


def test_root_cone_membership():
    assert in_positive_root_cone((0, 0))
    assert in_positive_root_cone((1, -1))
    assert not in_positive_root_cone((-1, 1))
    assert not in_positive_root_cone((1, 0))  # odd sum


def test_q_kostant_fixtures():
    assert q_kostant((0, 0)) == QPolynomial.one()
    assert q_kostant(()) == QPolynomial.one()
    assert q_kostant((1, -1)) == QPolynomial.q_power(1)
    # three decompositions of (2,0): the doubled root, the two mixed roots,
    # and twice (1,-1) plus (0,2)
    assert q_kostant((2, 0)) == QPolynomial({1: 1, 2: 1, 3: 1})


def test_q_kostant_takes_a_list():
    for beta in ((2, 0), (1, -1, 2), (0, 0), (3, -1)):
        assert q_kostant(list(beta)) == q_kostant(beta), beta


def test_q_kostant_against_brute_force_exhaustive():
    for n in (1, 2):
        for beta in itertools.product(range(-4, 5), repeat=n):
            assert q_kostant(beta).coefficients() == brute_force_counts(beta, n), beta


def test_q_kostant_against_brute_force_rank3():
    rng = random.Random(7)
    betas = set(itertools.product(range(-2, 3), repeat=3))
    while len(betas) < 160:
        betas.add(tuple(rng.randint(-4, 4) for _ in range(3)))
    for beta in sorted(betas):
        assert q_kostant(beta).coefficients() == brute_force_counts(beta, 3), beta


def test_kostka_def_diagonal_is_one():
    # rho(n) reaches past the golden table's n <= 4, up to rank 10
    for lam in [(0,), (3,), (2, 1), (3, 2, 0)] + [rho(n) for n in range(1, 11)]:
        assert kostka_def(lam, lam) == QPolynomial.one(), lam


@pytest.mark.parametrize("n", range(1, 11))
def test_kostka_def_long_root_at_zero_gives_the_exponents(n):
    # K_{(2,0,...,0),0} = q + q^3 + ... + q^(2n-1): the exponents 1, 3, ...,
    # 2n-1 of C_n (Kostant, Amer. J. Math. 85, 1963)
    lam = (2,) + (0,) * (n - 1)
    assert kostka_def(lam, (0,) * n) == QPolynomial(dict.fromkeys(range(1, 2 * n, 2), 1))


def test_kostka_def_rank1_closed_form():
    for lam in range(7):
        for mu in range(7):
            got = kostka_def((lam,), (mu,))
            if lam >= mu and (lam - mu) % 2 == 0:
                assert got == QPolynomial.q_power((lam - mu) // 2)
            else:
                assert got.is_zero()


def test_kostka_def_worked_fixture():
    assert kostka_def((2, 2, 0), (0, 0, 0)) == QPolynomial({2: 1, 4: 2, 6: 2, 8: 1})


def test_kostka_def_rejects_bad_input():
    with pytest.raises(ValueError):
        kostka_def((1, 2), (0, 0))
    with pytest.raises(ValueError):
        kostka_def((2, 1), (1, 2))
    with pytest.raises(ValueError):
        kostka_def((2, 1), (1,))


def test_stability_under_rank_truncation():
    # equal first parts let the polynomial drop to the previous rank
    for n in (2, 3, 4):
        for lam in dominant_weights(n, 6):
            for mu in dominant_weights(n, 6):
                if lam[0] != mu[0]:
                    continue
                full = kostka_def(lam, mu)
                truncated = kostka_def(lam[1:], mu[1:])
                assert full == truncated, (lam, mu)


def test_kostka_def_coefficients_nonnegative():
    for lam in dominant_weights(3, 5):
        for mu in dominant_weights(3, 5):
            assert kostka_def(lam, mu).is_nonnegative()


def all_weyl_terms(lam, mu):
    """Reference: every signed permutation, kept when beta lies in the root cone."""
    n = len(lam)
    rhov = rho(n)
    lam_rho = tuple(a + b for a, b in zip(lam, rhov))
    mu_rho = tuple(a + b for a, b in zip(mu, rhov))
    out = []
    for sigma, length in weyl_group(n):
        beta = tuple(a - b for a, b in zip(act(sigma, lam_rho), mu_rho))
        if in_positive_root_cone(beta):
            out.append((-1 if length % 2 else 1, beta))
    return lam_rho, mu_rho, sorted(out)


@pytest.mark.parametrize("n,size", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_pruned_weyl_terms_match_full_group(n, size):
    for lam in dominant_weights(n, size):
        for mu in dominant_weights(n, size):
            lam_rho, mu_rho, want = all_weyl_terms(lam, mu)
            assert sorted(_weyl_terms(lam_rho, mu_rho)) == want, (lam, mu)


def test_weyl_terms_keep_the_reference_order():
    # the same (sign, beta) terms, in the same order, as the generator the
    # flat walk replaced: j ascending, + before - for each j
    for n, size in [(1, 8), (2, 8), (3, 8), (4, 6), (5, 4), (6, 4), (8, 3)]:
        rhov = rho(n)
        weights = dominant_weights(n, size)
        for lam in weights:
            lam_rho = tuple(a + b for a, b in zip(lam, rhov))
            for mu in weights:
                mu_rho = tuple(a + b for a, b in zip(mu, rhov))
                want = list(reference_weyl_terms(lam_rho, mu_rho))
                assert _weyl_terms(lam_rho, mu_rho) == want, (lam, mu)


def test_weyl_sum_is_empty_outside_the_cone():
    # kostka_def answers a pair with lam - mu outside the root cone 0 before
    # any search; the search it skips must find no term for any such pair
    outside = 0
    for n, size in [(1, 8), (2, 8), (3, 6), (4, 6), (5, 4)]:
        rhov = rho(n)
        weights = dominant_weights(n, size)
        for lam in weights:
            for mu in weights:
                if in_positive_root_cone(tuple(a - b for a, b in zip(lam, mu))):
                    continue
                outside += 1
                lam_rho = tuple(a + b for a, b in zip(lam, rhov))
                mu_rho = tuple(a + b for a, b in zip(mu, rhov))
                assert _weyl_terms(lam_rho, mu_rho) == [], (lam, mu)
    assert outside == 1528


# K_{(2,2,2,2,2,0),0}, computed once by the loop over all 46080 signed
# permutations with a fresh q-Kostant DP per beta (about 3 minutes)
GOLDEN_222220 = {
    5: 1, 7: 2, 9: 4, 11: 7, 13: 11, 14: 1, 15: 15, 16: 2, 17: 18, 18: 3,
    19: 20, 20: 4, 21: 20, 22: 5, 23: 18, 24: 5, 25: 15, 26: 4, 27: 11,
    28: 3, 29: 7, 30: 2, 31: 4, 32: 1, 33: 2, 35: 1,
}


def test_kostka_def_rank6_golden():
    assert kostka_def((2, 2, 2, 2, 2, 0), (0,) * 6) == QPolynomial(GOLDEN_222220)


def test_clear_caches_empties_memo():
    kostka_def((2, 1, 1), (0, 0, 0))
    assert cache_sizes()["kostant._memo"] > 0
    clear_caches()
    assert cache_sizes()["kostant._memo"] == 0


def test_memo_cap_keeps_results(monkeypatch):
    # one memo serves every rank, so the cap bounds ranks 4 and 5 together
    pairs = [
        ((4, 3, 2, 1), (0, 0, 0, 0)),
        ((2, 2, 1, 1, 0), (0,) * 5),
        ((3, 1, 0, 0), (1, 1, 0, 0)),
    ]
    want = [kostka_def(lam, mu) for lam, mu in pairs]
    clear_caches()
    monkeypatch.setattr(kostant, "_MEMO_CAP", 50)
    for (lam, mu), value in zip(pairs, want):
        assert kostka_def(lam, mu) == value
        assert 0 < len(kostant._memo) <= 50
    clear_caches()


def test_unpack_reads_every_digit_up_to_the_bound():
    # 64-bit slots: nonnegative digits up to 2^64 - 1, signed ones as balanced
    # digits up to 2^63 - 1 either way, with borrows from the slot above
    rng = random.Random(3)
    for signed, top in ((False, 2**64 - 1), (True, 2**63 - 1)):
        low = -top if signed else 0
        for _ in range(400):
            coeffs = {
                e: rng.choice((low, top, rng.randint(low, top), 0))
                for e in range(rng.randint(0, 12))
            }
            packed = sum(c << (64 * e) for e, c in coeffs.items())
            want = {e: c for e, c in coeffs.items() if c}
            assert kostant._unpack(packed, top, signed, "K_") == want, coeffs
        with pytest.raises(OverflowError, match=r"^K_\(\(2, 1\),\(1, 1\)\): coefficients up to"):
            kostant._unpack(0, top + 1, signed, "K_", (2, 1), (1, 1))


def test_negative_weyl_sum_raises_positivity_error(monkeypatch):
    # q - (q + q^2 + q^3) = -q^2 - q^3: the signed sum reads back negative
    terms = [(1, (1, -1)), (-1, (2, 0))]
    monkeypatch.setattr(kostant, "_weyl_terms", lambda lam_rho, mu_rho: iter(terms))
    with pytest.raises(PositivityError, match=r"\{2: -1, 3: -1\}"):
        kostka_def((2, 0), (0, 0))
