"""Weight lattice, hyperoctahedral Weyl group and the straightening law.

Weights are integer tuples in the order (b_nbar, ..., b_1bar).  A signed
permutation is a tuple ``sigma`` of length n where ``sigma[i-1]`` is the
signed image of i; a negative value means the image is barred, and the
action on barred symbols follows by conjugation.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

Weight = tuple[int, ...]
SignedPermutation = tuple[int, ...]


def rho(n: int) -> Weight:
    """Half-sum of positive roots, (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def is_dominant(beta: Weight) -> bool:
    return all(beta[i] >= beta[i + 1] for i in range(len(beta) - 1)) and (
        not beta or beta[-1] >= 0
    )


def identity(n: int) -> SignedPermutation:
    return tuple(range(1, n + 1))


def generators(n: int) -> list[SignedPermutation]:
    """s_0 = sign flip on 1, s_i = transposition (i, i+1) for i = 1..n-1."""
    gens = [tuple(-1 if i == 1 else i for i in range(1, n + 1))]
    for k in range(1, n):
        g = list(range(1, n + 1))
        g[k - 1], g[k] = g[k], g[k - 1]
        gens.append(tuple(g))
    return gens


def compose(s: SignedPermutation, t: SignedPermutation) -> SignedPermutation:
    """Product with act(compose(s, t), b) = act(s, act(t, b)).

    The coordinate action pulls indices back, so the product evaluates t on
    the image of s: (s*t)(i) = t(s(i)), signs carried through.
    """
    out = []
    for si in s:
        ti = t[abs(si) - 1]
        out.append(ti if si > 0 else -ti)
    return tuple(out)


def weyl_group(n: int) -> Iterator[tuple[SignedPermutation, int]]:
    """Yield all 2^n * n! signed permutations with their Coxeter lengths.

    Lengths come from a breadth-first search over the generators, so they are
    computed once per rank and kept until ``clear_caches``.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    yield from _group(n)


@functools.cache
def _group(n: int) -> tuple[tuple[SignedPermutation, int], ...]:
    """The rank-n group in breadth-first order, with Coxeter lengths."""
    gens = generators(n)
    ident = identity(n)
    seen = {ident: 0}
    order = [(ident, 0)]
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for w in frontier:
            for g in gens:
                wg = compose(w, g)
                if wg not in seen:
                    seen[wg] = depth
                    order.append((wg, depth))
                    nxt.append(wg)
        frontier = nxt
    return tuple(order)


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


def dot_act(sigma: SignedPermutation, beta: Weight) -> Weight:
    """sigma o beta = sigma(beta + rho) - rho."""
    n = len(sigma)
    if len(beta) != n:
        raise ValueError(f"rank mismatch: {n} vs {len(beta)}")
    r = rho(n)
    shifted = act(sigma, tuple(b + x for b, x in zip(beta, r)))
    return tuple(s - x for s, x in zip(shifted, r))


def straighten(beta: Weight) -> tuple[int, Weight] | None:
    """Normalize a Schur index to a signed dominant one, or None if it vanishes.

    Sorts |beta + rho| into strictly decreasing order; the sign is the parity
    of the number of inversions plus the number of sign flips, which equals
    (-1)^l(sigma) for the unique sigma with sigma o beta dominant.  Vanishing
    (a zero or repeated absolute coordinate in beta + rho) returns None.
    """
    n = len(beta)
    r = rho(n)
    v = [b + x for b, x in zip(beta, r)]
    absv = [abs(x) for x in v]
    if 0 in absv or len(set(absv)) != n:
        return None
    flips = sum(1 for x in v if x < 0)
    inversions = 0
    for i in range(n):
        for j in range(i + 1, n):
            if absv[i] < absv[j]:
                inversions += 1
    sign = -1 if (flips + inversions) % 2 else 1
    lam = tuple(x - y for x, y in zip(sorted(absv, reverse=True), r))
    return sign, lam
