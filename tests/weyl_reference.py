"""The hyperoctahedral Weyl group W(C_n), its positive roots and the
straightening law, for tests.

No route of the package enumerates W(C_n): ``kostant._weyl_terms`` builds only
the signed permutations whose Weyl term can be nonzero.  The whole group with
its Coxeter lengths is the reference that pruning is checked against, and
``reference_weyl_terms``, the generator ``_weyl_terms`` was before it returned
a list, is the reference for the order of its terms.

A signed permutation is a tuple ``sigma`` of length n where ``sigma[i-1]`` is
the signed image of i; ``symplectic_kf.algebra.act`` is its action on weights.
"""

import functools

from symplectic_kf.algebra import act, rho


def identity(n):
    return tuple(range(1, n + 1))


def generators(n):
    """s_0 = sign flip on 1, s_i = transposition (i, i+1) for i = 1..n-1."""
    gens = [tuple(-1 if i == 1 else i for i in range(1, n + 1))]
    for k in range(1, n):
        g = list(range(1, n + 1))
        g[k - 1], g[k] = g[k], g[k - 1]
        gens.append(tuple(g))
    return gens


def compose(s, t):
    """Product with act(compose(s, t), b) = act(s, act(t, b)).

    The coordinate action pulls indices back, so the product evaluates t on
    the image of s: (s*t)(i) = t(s(i)), signs carried through.
    """
    out = []
    for si in s:
        ti = t[abs(si) - 1]
        out.append(ti if si > 0 else -ti)
    return tuple(out)


def weyl_group(n):
    """Yield all 2^n * n! signed permutations with their Coxeter lengths."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    yield from _group(n)


@functools.cache
def _group(n):
    """The rank-n group in breadth-first order over the generators, with
    Coxeter lengths."""
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


def dot_act(sigma, beta):
    """sigma o beta = sigma(beta + rho) - rho."""
    n = len(sigma)
    if len(beta) != n:
        raise ValueError(f"rank mismatch: {n} vs {len(beta)}")
    r = rho(n)
    shifted = act(sigma, tuple(b + x for b, x in zip(beta, r)))
    return tuple(s - x for s, x in zip(shifted, r))


def straighten(beta):
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


def positive_roots(n):
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


def reference_weyl_terms(lam_rho, mu_rho):
    """Yield (sign, beta) for each w with beta = w(lam_rho) - mu_rho in the root cone.

    Builds w(lam_rho) one coordinate at a time, each coordinate +-lam_rho[j]
    for an unused j, and cuts a branch as soon as a prefix sum of beta goes
    negative.  lam_rho is strictly decreasing and positive, so each signed
    permutation gives a distinct vector, and its sign (-1)^l(w) is the parity
    of inversions plus sign flips, as in ``straighten``.
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
