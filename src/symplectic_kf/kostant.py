"""q-analogue of Kostant's partition function and the definitional Kostka sum."""

from __future__ import annotations

from .algebra import Weight, is_dominant, rho
from .qpoly import QPolynomial

# Entries one rank's state memo may hold before it is emptied wholesale.  At
# rank 6 one Weyl sum such as K_{(2,2,2,2,2,0),0} fills about 67k entries of
# about 640 bytes each, so the cap leaves room for a sweep and bounds a
# rank's memo near 130 MB.
_MEMO_CAP = 200_000

# What every state that cannot be completed counts to.  Shared, never stored
# in a memo, and never mutated.
_NO_WAYS: dict[int, int] = {}


class PositivityError(RuntimeError):
    """A Kostka polynomial came out with a negative coefficient."""


def positive_roots(n: int) -> list[Weight]:
    """The n^2 positive roots, grouped by their leading coordinate position."""
    roots = []
    for i in range(n, 0, -1):
        for j in range(i - 1, 0, -1):
            r = [0] * n
            r[n - i] = 1
            r[n - j] = -1
            roots.append(tuple(r))
            r2 = [0] * n
            r2[n - i] = 1
            r2[n - j] = 1
            roots.append(tuple(r2))
        r3 = [0] * n
        r3[n - i] = 2
        roots.append(tuple(r3))
    return roots


def in_positive_root_cone(beta: Weight) -> bool:
    """Membership in the monoid spanned by positive roots.

    Equivalent to: every prefix sum of the coordinates is nonnegative and the
    total sum is even (the simple-root coefficients solved in closed form).
    """
    s = 0
    for b in beta:
        s += b
        if s < 0:
            return False
    return s % 2 == 0


class _KostantTable:
    """The rank-n roots and one memo of partial counts shared by every beta.

    A state ``(idx, remaining)`` stands for the ways to write ``remaining`` as
    a sum of the roots ``roots[idx:]``, as exponent -> count with one q per
    root used.  Roots come in leading-position order, so once the roots with
    first support ``p`` are used up, coordinate ``p`` of the remainder must be
    zero; and the remainder must stay in the root cone.  States failing either
    test count to nothing and are never stored, which keeps the memo to the
    states that can still be completed.
    """

    def __init__(self, n: int):
        self.roots = positive_roots(n)
        # one entry past the last root: with every root used, all n coordinates are done
        self.first_support = [next(i for i, x in enumerate(r) if x) for r in self.roots] + [n]
        self.rho = rho(n)
        self.heights = [sum(a * x for a, x in zip(self.rho, r)) for r in self.roots]
        self.memo: dict[tuple[int, Weight], dict[int, int]] = {}

    def count(self, idx: int, remaining: Weight) -> dict[int, int]:
        if any(remaining[: self.first_support[idx]]) or not in_positive_root_cone(remaining):
            return _NO_WAYS
        if idx == len(self.roots):
            return {0: 1}
        key = (idx, remaining)
        memo = self.memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        h = sum(a * x for a, x in zip(self.rho, remaining))
        a = self.roots[idx]
        out: dict[int, int] = {}
        for k in range(h // self.heights[idx] + 1):
            sub = self.count(idx + 1, tuple(x - k * y for x, y in zip(remaining, a)))
            for e, c in sub.items():
                out[e + k] = out.get(e + k, 0) + c
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = out
        return out


_TABLES: dict[int, _KostantTable] = {}


def clear_caches() -> None:
    """Drop every rank's q-Kostant memo."""
    _TABLES.clear()


def cache_sizes() -> dict[int, int]:
    """Entries held in the q-Kostant memo of each rank built so far."""
    return {n: len(t.memo) for n, t in sorted(_TABLES.items())}


def q_kostant(beta: Weight) -> QPolynomial:
    """Number of ways to write beta as a sum of exactly k positive roots, as q^k.

    Bounded dynamic programming over the roots in leading-position order,
    memoized per rank in a table shared by every beta of that rank.
    """
    n = len(beta)
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES[n] = _KostantTable(n)
    return QPolynomial(table.count(0, beta))


def _weyl_terms(lam_rho: Weight, mu_rho: Weight):
    """Yield (sign, beta) for each w with beta = w(lam_rho) - mu_rho in the root cone.

    Builds w(lam_rho) one coordinate at a time, each coordinate +-lam_rho[j]
    for an unused j, and cuts a branch as soon as a prefix sum of beta goes
    negative.  lam_rho is strictly decreasing and positive, so each signed
    permutation gives a distinct vector, and its sign (-1)^l(w) is the parity
    of inversions plus sign flips, as in ``algebra.straighten``.
    """
    n = len(lam_rho)
    used = [False] * n
    beta = [0] * n

    def rec(i: int, prefix: int, parity: int):
        if i == n:
            if prefix % 2 == 0:
                yield (-1 if parity else 1), tuple(beta)
            return
        target = mu_rho[i]
        for j in range(n):
            if used[j]:
                continue
            inversions = sum(used[j + 1:])
            used[j] = True
            for value, flip in ((lam_rho[j], 0), (-lam_rho[j], 1)):
                b = value - target
                if prefix + b >= 0:
                    beta[i] = b
                    yield from rec(i + 1, prefix + b, (parity + inversions + flip) % 2)
            used[j] = False

    yield from rec(0, 0, 0)


def kostka_def(lam: Weight, mu: Weight) -> QPolynomial:
    """Alternating Weyl-group sum over the q-Kostant partition function.

    Both arguments must be dominant weights of the same rank.  Only the Weyl
    terms whose beta lies in the positive root cone are visited; the rest are
    zero.  The result is checked for nonnegative coefficients; a violation
    signals a bug, not a property of the inputs.
    """
    n = len(lam)
    if len(mu) != n:
        raise ValueError(f"rank mismatch: {n} vs {len(mu)}")
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    rhov = rho(n)
    lam_rho = tuple(a + b for a, b in zip(lam, rhov))
    mu_rho = tuple(a + b for a, b in zip(mu, rhov))
    total: dict[int, int] = {}
    for sign, beta in _weyl_terms(lam_rho, mu_rho):
        for e, c in q_kostant(beta).coefficients().items():
            total[e] = total.get(e, 0) + sign * c
    result = QPolynomial(total)
    if not result.is_nonnegative():
        raise PositivityError(f"negative coefficient in K_({lam},{mu}): {result!r}")
    return result
