"""Checks of the items' outputs against computations made apart from the program.

* every K_{lam,mu}: zero exactly when lam - mu is outside the positive root
  cone; otherwise monic of degree <lam - mu, rho^vee> with nonnegative
  coefficients; K_{lam,lam} = 1;
* sweep-n3 and oracle-n5: for each lam, sum_mu K_{lam,mu}(1) |W mu| equals
  Weyl's dimension formula for V(lam); in sweep-n3 every verdict is a match;
* morris-n4: K(1) equals the mu-weight multiplicity of V(nu), from
  Freudenthal's formula;
* cyclage-n4: each component is a tree (|E| = |V| - 1, one sink that every
  vertex reaches along out-edges), U(S) = T
  on every edge, every vertex has the seed's weight, no tableau lies in two
  items' components, and the vertex count, vertex digest and seed charge
  match the file the items came from.

``failed_items`` returns the ids of the items whose outputs break a check.
Only the cocyclage of each edge is computed by the program itself.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from workloads import dominant_weights, in_cone, load_cyclage_data, parse_tableau


def positive_roots(n: int) -> list[tuple[int, ...]]:
    """e_i - e_j, e_i + e_j (i < j) and 2 e_i, in the coordinates (b_nbar, ..., b_1bar)."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for s in (-1, 1):
                r = [0] * n
                r[i], r[j] = 1, s
                roots.append(tuple(r))
        r = [0] * n
        r[i] = 2
        roots.append(tuple(r))
    return roots


def rho(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def expected_degree(lam, mu) -> int:
    """<lam - mu, rho^vee> with rho^vee = (n - 1/2, ..., 1/2)."""
    n = len(lam)
    twice = sum((a - b) * (2 * (n - i) - 1) for i, (a, b) in enumerate(zip(lam, mu)))
    return twice // 2


def poly_ok(lam, mu, poly: dict[int, int]) -> bool:
    """K_{lam,mu} has the properties every Kostka-Foulkes polynomial has."""
    if not in_cone(tuple(a - b for a, b in zip(lam, mu))):
        return not poly
    if not poly or any(c < 0 for c in poly.values()):
        return False
    deg = max(poly)
    if deg != expected_degree(lam, mu) or poly[deg] != 1:
        return False
    return lam != mu or poly == {0: 1}


def weyl_dimension(lam) -> int:
    n = len(lam)
    r = rho(n)
    lr = tuple(a + b for a, b in zip(lam, r))
    d = prod((Fraction(dot(lr, a), dot(r, a)) for a in positive_roots(n)), start=Fraction(1))
    assert d.denominator == 1
    return int(d)


def orbit_size(mu) -> int:
    """|W mu| for W the signed permutations: distinct arrangements times sign choices."""
    counts: dict[int, int] = {}
    for x in mu:
        counts[x] = counts.get(x, 0) + 1
    arrangements = factorial(len(mu)) // prod(factorial(c) for c in counts.values())
    return arrangements * 2 ** sum(1 for x in mu if x)


@lru_cache(maxsize=None)
def weight_multiplicities(lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Dominant weight multiplicities of V(lam) by Freudenthal's formula.

    m(mu) ((lam+rho, lam+rho) - (mu+rho, mu+rho)) = 2 sum_{a>0} sum_{k>=1}
    (mu + k a, a) m(mu + k a); m is W-invariant, so m(v) is read at the
    dominant weight |v| sorted, and an a-string of weights has no gaps.
    """
    n = len(lam)
    r = rho(n)
    roots = positive_roots(n)
    below = [
        mu
        for mu in dominant_weights(n, sum(lam))
        if in_cone(tuple(a - b for a, b in zip(lam, mu)))
    ]
    below.sort(key=lambda mu: expected_degree(lam, mu))
    weights = set(below)

    def norm_rho(v):
        return sum((a + b) ** 2 for a, b in zip(v, r))

    top = norm_rho(lam)
    mult = {lam: 1}
    for mu in below:
        if mu == lam:
            continue
        total = 0
        for a in roots:
            k = 1
            while True:
                v = tuple(x + k * y for x, y in zip(mu, a))
                dom = tuple(sorted((abs(x) for x in v), reverse=True))
                if dom not in weights:
                    break
                total += mult[dom] * dot(v, a)
                k += 1
        m, rem = divmod(2 * total, top - norm_rho(mu))
        assert rem == 0
        mult[mu] = m
    return mult


def _poly(out: dict[str, int]) -> dict[int, int]:
    return {int(e): c for e, c in out.items()}


def _weight(tab) -> dict[int, int]:
    """Barred minus unbarred count per letter, nonzero entries only.

    Cocyclage may bring in letters above the rank, so this is keyed by letter.
    """
    d: dict[int, int] = {}
    for col in tab:
        for x in col:
            d[abs(x)] = d.get(abs(x), 0) + (1 if x < 0 else -1)
    return {k: v for k, v in d.items() if v}


def _dimension_sums(items, polys) -> set[int]:
    """Ids of the items whose lam fails sum_mu K(1) |W mu| = dim V(lam)."""
    by_lam: dict = {}
    for item_id, (lam, mu) in items:
        by_lam.setdefault(lam, []).append(item_id)
    bad = set()
    args = dict(items)
    for lam, ids in by_lam.items():
        if any(polys.get(i) is None for i in ids):
            continue  # an item of this lam already failed
        total = sum(sum(polys[i].values()) * orbit_size(args[i][1]) for i in ids)
        if total != weyl_dimension(lam):
            bad.update(ids)
    return bad


def failed_items(workload: str, items, outputs) -> set[int]:
    """Ids of the items whose output is missing or breaks a check.

    ``items`` are ``(item_id, args)`` as made by workloads.make_items and
    ``outputs`` maps item id to the serialised output (None for an error).
    """
    bad = {i for i, _ in items if outputs.get(i) is None}
    if workload == "cyclage-n4":
        return bad | _cyclage_failures(items, outputs)
    polys: dict[int, dict[int, int] | None] = {}
    for item_id, (lam, mu) in items:
        out = outputs.get(item_id)
        if out is None:
            continue
        if workload == "sweep-n3":
            poly = _poly(out["def"])
            if out["verdict"] != "match" or _poly(out["charge"]) != poly:
                bad.add(item_id)
            elif sum(poly.values()) != out["tableaux"]:
                bad.add(item_id)
        else:
            poly = _poly(out)
        if not poly_ok(lam, mu, poly):
            bad.add(item_id)
        elif workload == "morris-n4" and sum(poly.values()) != weight_multiplicities(lam).get(mu, 0):
            bad.add(item_id)
        else:
            polys[item_id] = poly
    if workload in ("sweep-n3", "oracle-n5"):
        bad |= _dimension_sums(items, polys)
    return bad


def _is_tree(n_verts: int, edges) -> bool:
    """|E| = |V| - 1, no vertex has two out-edges, and every vertex reaches the
    one sink along out-edges within |V| steps, so there is no cycle either."""
    succ: dict[int, int] = {}
    for a, b in edges:
        if a in succ or not (0 <= a < n_verts and 0 <= b < n_verts):
            return False
        succ[a] = b
    sinks = [v for v in range(n_verts) if v not in succ]
    if len(edges) != n_verts - 1 or len(sinks) != 1:
        return False
    for v in range(n_verts):
        for _ in range(n_verts):
            if v not in succ:
                break
            v = succ[v]
        if v != sinks[0]:
            return False
    return True


def _cyclage_failures(items, outputs) -> set[int]:
    from symplectic_kf import cocycle

    comps = load_cyclage_data()
    bad = set()
    owner: dict[str, int] = {}
    for item_id, (seed,) in items:
        out = outputs.get(item_id)
        if out is None:
            continue
        count, digest, seeds = comps[item_id]
        verts = out["vertices"]
        tabs = [parse_tableau(v) for v in verts]
        edges = out["edges"]
        seed_text = ";".join(",".join(map(str, col)) for col in seed)
        seed_weight = _weight(seed)
        ok = (
            _is_tree(len(verts), edges)
            and all(cocycle(tabs[a]) == tabs[b] for a, b in edges)
            and all(_weight(t) == seed_weight for t in tabs)
            and seed_text in verts
            and len(verts) == count
            and hashlib.sha256("\n".join(sorted(verts)).encode()).hexdigest()[:16] == digest
            and out["charge"] == dict(seeds)[seed_text]
        )
        if not ok:
            bad.add(item_id)
        for v in verts:
            other = owner.setdefault(v, item_id)
            if other != item_id:
                bad.update((item_id, other))
    return bad
