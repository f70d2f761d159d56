"""Pieri decomposition, recurrence formulas and the conjecture harness."""

from __future__ import annotations

import functools
from collections import namedtuple
from operator import sub

from . import kostant
from .algebra import Weight, check_weight, in_positive_root_cone
from .cyclage import _charge, _check_chain_start
from .kostant import kostka_def
from .qpoly import QPolynomial
from .tableaux import Tableau, enumerate_tableaux, format_tableau


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def pieri(gamma: Weight, r: int, n: int) -> dict[Weight, int]:
    """Multiplicities n_lambda in the product of B(gamma) with the rank-n row crystal.

    Counts the tuples (k_1bar..k_nbar, k_1..k_n) summing to r that satisfy the
    three interleaving conditions; each contributes one copy of the weight
    lambda with lambda_ibar = gamma_ibar - k_i + k_ibar.  Memoised per
    (gamma, r, n); every call returns a fresh dict.
    """
    return dict(_pieri_terms(check_weight(gamma, n), r, n))


# the rank-lowering recurrence asks for the same few (gamma, r, n) again and again
@functools.cache
def _pieri_terms(gamma: Weight, r: int, n: int) -> tuple[tuple[Weight, int], ...]:
    return tuple(_pieri_count(gamma, r, n).items())


def _pieri_count(gamma: Weight, r: int, n: int) -> dict[Weight, int]:
    """Depth-first over i = 1..n, choosing (k_ibar, k_i) with lambda_i known.

    With lambda_i = gamma_i - k_i + k_ibar, the conditions
      lambda_1 >= k_1bar,
      lambda_(i-1) <= lambda_i - k_ibar,
      lambda_i - k_ibar >= lambda_(i-1) + k_(i-1) - k_(i-1)bar
    bound k_i alone, by gamma_1 at i = 1 and by
    gamma_i - lambda_(i-1) - max(0, k_(i-1) - k_(i-1)bar) after; k_nbar takes
    what is left of r.  The second condition also makes every lambda found
    dominant.
    """
    out: dict[Weight, int] = {}
    lam = [0] * n  # lam[n - i] = lambda_i

    def step(i: int, left: int, cap: int) -> None:
        g = gamma[n - i]
        cap = min(cap, left)
        if cap < 0:
            return
        if i == n:
            for k in range(cap + 1):
                lam[0] = g - k + left - k
                key = tuple(lam)
                out[key] = out.get(key, 0) + 1
            return
        for kbar in range(left + 1):
            for k in range(min(cap, left - kbar) + 1):
                lam_i = lam[n - i] = g - k + kbar
                step(i + 1, left - kbar - k, gamma[n - i - 1] - lam_i - max(0, k - kbar))

    step(1, r, gamma[n - 1])
    return out


def _kostka_rank1(lam: Weight, mu: Weight) -> tuple[int, int]:
    l, m = lam[0], mu[0]
    if l >= m >= 0 and (l - m) % 2 == 0:
        return 1 << (kostant._W * ((l - m) // 2)), 1
    return 0, 0


def kostka_morris(nu: Weight, mu: Weight, n: int) -> QPolynomial:
    """Rank-lowering recurrence over the Pieri decomposition.

    Valid under mu_nbar >= nu_(n-1)bar; the sum runs over r + 2m = l with
    l = nu_nbar - mu_nbar, weighting rank-(n-1) Kostka polynomials by q^(r+m).
    Lower-rank terms recurse while the hypothesis holds and otherwise fall
    back to the definitional sum, so the result is always exact.  Every term,
    this one included, is memoised per (lam, mu, n) until ``clear_caches``.
    Raises OverflowError if K_{nu,mu}(1) reaches 2^64, past what the packed
    terms read back exactly.
    """
    nu, mu = check_weight(nu, n), check_weight(mu, n)
    if n > 1 and mu[0] < nu[1]:
        raise ValueError(f"hypothesis mu_nbar >= nu_(n-1)bar fails: {mu[0]} < {nu[1]}")
    return QPolynomial._of(kostant._unpack(*_kostka_terms(nu, mu, n), False, "K_", nu, mu))


@functools.cache
def _kostka_terms(lam: Weight, mu: Weight, n: int) -> tuple[int, int]:
    """K_{lam,mu} for dominant lam, mu of rank n, by the cheapest exact route.

    The value is (K packed as in ``kostant._W``, K(1)), (0, 0) for zero.  The
    memo holds every pair the recurrence reaches: rank 1 by the closed form,
    the recurrence where its hypothesis holds, and kostka_def where it fails,
    so kostka_morris checks the hypothesis before it calls this.
    """
    if n == 1:
        return _kostka_rank1(lam, mu)
    if mu[0] >= lam[1]:
        return _morris_terms(lam, mu, n)
    # kostka_def's value has been checked nonnegative
    coeffs = kostka_def(lam, mu).coefficients()
    return sum(c << (kostant._W * e) for e, c in coeffs.items()), sum(coeffs.values())


def _morris_terms(nu: Weight, mu: Weight, n: int) -> tuple[int, int]:
    l = nu[0] - mu[0]
    if l < 0:
        return 0, 0
    nu_p, mu_p = nu[1:], mu[1:]
    out = ways = 0
    for r in range(l % 2, l + 1, 2):
        acc = 0
        for lam, mult in _pieri_terms(nu_p, r, n - 1):
            v, c = _kostka_terms(lam, mu_p, n - 1)
            acc += mult * v
            ways += mult * c
        out += acc << (kostant._W * (r + (l - r) // 2))
    return out, ways


def kostka_row(p: int, mu: Weight, n: int) -> QPolynomial:
    """Closed form for a row shape: q^f(mu) * sum of q^theta(L) over the fiber.

    The fiber consists of the letter-count tuples with k_ibar - k_i = mu_ibar
    and total p; f(mu) = sum (n-i) mu_ibar and
    theta(L) = sum (2(n-i)+1)(k_ibar - mu_ibar).
    """
    mu = check_weight(mu, n)
    size = sum(mu)
    if p < size or (p - size) % 2:
        return QPolynomial.zero()
    f = sum((n - i) * mu[n - i] for i in range(1, n + 1))
    free = (p - size) // 2
    out: dict[int, int] = {}
    for extra in _compositions(free, n):
        theta = sum((2 * (n - i) + 1) * extra[i - 1] for i in range(1, n + 1))
        out[f + theta] = out.get(f + theta, 0) + 1
    return QPolynomial(out)


def kostka_column_rec(p: int, n: int) -> QPolynomial:
    """Two-column-height recurrence for K of a height-p column shape at weight 0.

    Evaluates (q-1) K_{gamma^p,0} + q K_{(1^p),0} + q K_{(1^(p-2)),0} at rank
    n-1, with every right-hand side supplied by the definitional sum; terms
    whose shape does not fit in rank n-1 vanish.
    """
    if not 2 <= p <= n:
        raise ValueError(f"need 2 <= p <= n, got p={p}, n={n}")

    def k_at(parts: tuple[int, ...], rank: int) -> QPolynomial:
        parts = tuple(x for x in parts if x)
        if len(parts) > rank:
            return QPolynomial.zero()
        lam = parts + (0,) * (rank - len(parts))
        return kostka_def(lam, (0,) * rank)

    gamma_p = (2,) + (1,) * (p - 2)
    k_gamma = k_at(gamma_p, n - 1)
    k_full = k_at((1,) * p, n - 1)
    k_less = k_at((1,) * (p - 2), n - 1)
    q = QPolynomial.q_power(1)
    return (q - QPolynomial.one()) * k_gamma + q * k_full + q * k_less


def _tableau_charges(
    lam: Weight, mu: Weight, n: int
) -> tuple[tuple[tuple[Tableau, int], ...], QPolynomial]:
    """The tableaux of shape lam and weight mu with their charges, and sum q^charge.

    The tableaux are symplectic by construction, so their charges skip the
    symplectic check that ``charge`` makes, and all have the weight mu, so
    the weight check is made on the first one only.
    """
    listing = []
    out: dict[int, int] = {}
    tabs = enumerate_tableaux(lam, mu, n)
    if tabs:
        _check_chain_start(tabs[0], n)
    for tab in tabs:
        c = _charge(tab, n)
        if c < 0:
            raise ValueError(
                f"negative charge {c} for {format_tableau(tab)} at rank {n}"
            )
        listing.append((tab, c))
        out[c] = out.get(c, 0) + 1
    # int charges, checked >= 0 above, each counted at least once: sorted by
    # charge, the counts are in QPolynomial's stored form
    return tuple(listing), QPolynomial._of(dict(sorted(out.items())))


def charge_kostka(lam: Weight, mu: Weight, n: int) -> QPolynomial:
    """Sum of q^charge over the symplectic tableaux of shape lam and weight mu.

    Both must be dominant rank-n weights, as for the other routes.
    """
    return _tableau_charges(check_weight(lam, n), check_weight(mu, n), n)[1]


class VerificationReport(
    namedtuple("VerificationReport", "lam mu n k_definitional k_charge tableau_charges")
):
    """Side-by-side comparison of the definitional and charge-generated polynomials.

    ``tableau_charges`` holds a (tableau, charge) pair for each tableau of
    shape ``lam`` and weight ``mu``.
    """

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "match" if self.k_definitional == self.k_charge else "mismatch"

    def to_text(self) -> str:
        lines = [
            f"lambda: {','.join(map(str, self.lam))}",
            f"mu: {','.join(map(str, self.mu))}",
            f"n: {self.n}",
            f"definitional: {self.k_definitional}",
            f"charge: {self.k_charge}",
        ]
        for tab, c in self.tableau_charges:
            lines.append(f"tableau: {format_tableau(tab)} charge: {c}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)

    def to_record(self) -> dict:
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "n": self.n,
            "definitional": self.k_definitional.to_record(),
            "charge": self.k_charge.to_record(),
            "tableaux": [
                {"tableau": format_tableau(t), "charge": c}
                for t, c in self.tableau_charges
            ],
            "verdict": self.verdict,
        }


def verify_conjecture(lam: Weight, mu: Weight, n: int) -> VerificationReport:
    """Compare kostka_def with the charge route; a mismatch is a finding, not an error.

    Both weights are checked once with ``check_weight``.  A pair with lam - mu
    outside the positive root cone is answered by that one test, with zero on
    both sides and no tableaux, and runs neither route; both routes cut such
    a pair by the same test.
    """
    lam, mu = check_weight(lam, n), check_weight(mu, n)
    # mu is dominant, so mu+ = mu: enumerate_tableaux's cut on lam - mu+ is
    # kostka_def's cut on lam - mu, and this test is both
    if not in_positive_root_cone(tuple(map(sub, lam, mu))):
        zero = QPolynomial.zero()
        return VerificationReport(lam, mu, n, zero, zero, ())
    k_def = kostka_def(lam, mu)
    listing, k_charge = _tableau_charges(lam, mu, n)
    return VerificationReport(lam, mu, n, k_def, k_charge, listing)


def verify_fundamental_conjecture(p: int, n: int) -> VerificationReport:
    """verify_conjecture for the column of height n-p at weight zero.

    Its tableaux are the zero-weight n-admissible columns of that height.
    """
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, got p={p}, n={n}")
    if (n - p) % 2:
        raise ValueError(f"zero weight needs an even column height, got n-p = {n - p}")
    return verify_conjecture((1,) * (n - p) + (0,) * p, (0,) * n, n)
