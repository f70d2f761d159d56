"""Weights of C_n: rho, dominance, the root cone, the rank and weight checks,
the Weyl action.

Weights are integer tuples in the order (b_nbar, ..., b_1bar).  A signed
permutation is a tuple ``sigma`` of length n where ``sigma[i-1]`` is the
signed image of i; a negative value means the image is barred, and the
action on barred symbols follows by conjugation.  The routes never enumerate
the Weyl group: ``kostant._weyl_terms`` builds only the signed permutations
whose term can be nonzero.
"""

from __future__ import annotations

from operator import ge

Weight = tuple[int, ...]
SignedPermutation = tuple[int, ...]


def rho(n: int) -> Weight:
    """Half-sum of positive roots, (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def is_dominant(beta: Weight) -> bool:
    """Weakly decreasing with a nonnegative last entry (the empty tuple is dominant)."""
    return not beta or (beta[-1] >= 0 and all(map(ge, beta, beta[1:])))


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


def check_rank(n: int) -> None:
    """Raise ValueError unless n is a rank, at least 1."""
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")


def _int_entries(w: tuple) -> bool:
    """Whether every entry of w is an int, in one pass: a sum of ints is an
    int, and a float, Fraction or str entry makes it something else or fails."""
    try:
        return type(sum(w)) is int
    except TypeError:
        return False


def _non_int_weight(w: tuple) -> ValueError:
    """The error for a weight w with an entry that is not an int."""
    return ValueError(f"{w} is not a weight: its entries must be ints")


def check_weight(w, n: int) -> Weight:
    """tuple(w); raise ValueError unless n is a rank and w a dominant weight of
    it with int entries."""
    check_rank(n)
    w = tuple(w)
    if not _int_entries(w):
        raise _non_int_weight(w)
    if len(w) != n or not is_dominant(w):
        raise ValueError(f"{w} is not a dominant rank-{n} weight")
    return w


def act(sigma: SignedPermutation, beta: Weight) -> Weight:
    """Permute coordinates with sign flips: (sigma b)_ibar = +-b_|sigma(i)|bar."""
    n = len(sigma)
    if len(beta) != n:
        raise ValueError(f"rank mismatch: {n} vs {len(beta)}")
    out = [0] * n
    for i in range(1, n + 1):
        si = sigma[i - 1]
        v = beta[n - abs(si)]
        out[n - i] = v if si > 0 else -v
    return tuple(out)
